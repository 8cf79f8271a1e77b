"""Record pass rule: empty or non-finite residual sets never pass."""

import math

import pytest

from liebundles.reporting import make_record


@pytest.mark.parametrize("residuals, tolerance, mode", [
    ([1e-12, math.nan], 1e-8, "max<=tol"),
    ([1e-12, math.inf], 1e-8, "max<=tol"),
    ([2.0, math.nan], 1e-3, "min>tol"),
    ([], 1e-8, "max<=tol"),
    ([], 1e-3, "min>tol"),
])
def test_empty_or_non_finite_residuals_fail(residuals, tolerance, mode):
    record = make_record("check", "label", "scenario", residuals, tolerance, mode=mode)
    assert not record.passed
    assert record.samples == len(residuals)
