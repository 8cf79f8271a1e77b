"""Record pass rule: empty or non-finite residual sets never pass, and only
`make_record` judges a residual against its tolerance."""

import dataclasses
import importlib
import inspect
import math
import pkgutil

import numpy as np
import pytest

import liebundles
from liebundles.reporting import MODES, make_record


@pytest.mark.parametrize("residuals, tolerance, mode", [
    ([1e-12, math.nan], 1e-8, "max<=tol"),
    ([1e-12, math.inf], 1e-8, "max<=tol"),
    ([2.0, math.nan], 1e-3, "min>tol"),
    ([], 1e-8, "max<=tol"),
    ([], 1e-3, "min>tol"),
    (np.array([1e-12, np.nan]), 1e-8, "max<=tol"),
    (np.array([2.0, -np.inf]), 1e-3, "min>tol"),
    (np.array([]), 1e-8, "max<=tol"),
    (np.zeros(0), 1e-3, "min>tol"),
])
def test_empty_or_non_finite_residuals_fail(residuals, tolerance, mode):
    record = make_record("check", "label", "scenario", residuals, tolerance, mode=mode)
    assert not record.passed
    assert record.samples == len(residuals)
    assert math.isnan(record.max_residual) and math.isnan(record.mean_residual)


def test_the_mean_is_the_left_to_right_sum():
    residuals = [1.0] + [2.0**-53] * 9
    record = make_record("check", "label", "scenario", np.array(residuals), 1.0)
    assert record.mean_residual == 0.1
    # numpy's pairwise sum keeps the small terms
    assert np.mean(residuals) == np.sum(residuals) / 10 == 0.10000000000000009


@pytest.mark.parametrize("mode", MODES)
def test_numpy_scalars_and_ints_judge_as_their_floats(mode):
    values = [0.25, 3.0, 1e-9, 7.0, 0.5]
    mixed = [np.array(0.25), np.float64(3.0), np.array(1e-9), 7, np.float32(0.5)]
    assert (make_record("c", "l", "s", mixed, 1e-3, order=2, mode=mode)
            == make_record("c", "l", "s", values, 1e-3, order=2.0, mode=mode))


def test_to_dict_keeps_the_fields_their_order_and_values():
    record = make_record("c", "l", "s", [1e-12, 3e-12], 1e-8, order=1.5, mode="max<=tol")
    got = record.to_dict()
    assert list(got.items()) == list(dataclasses.asdict(record).items())
    assert list(got) == [f.name for f in dataclasses.fields(record)]


def _compare_reports():
    import importlib.util
    import pathlib

    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "compare_reports.py"
    spec = importlib.util.spec_from_file_location("compare_reports", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("moved, code", [
    (0.0, 0), (5e-11, 0), (2e-10, 1),
    # a report that judges a check by another bound must not match
    pytest.param({"tolerance": 1e-6}, 1, id="tolerance-1"),
    pytest.param({"mode": "min>tol"}, 1, id="mode-1"),
])
def test_compare_reports_fails_beyond_roundoff(moved, code, tmp_path, capsys):
    import json

    changed = moved if isinstance(moved, dict) else {}
    shift = 0.0 if changed else moved
    for name, residual, fields in (("a", 1e-9, {}), ("b", 1e-9 + shift, changed)):
        (tmp_path / name).mkdir()
        record = {"check": "c", "samples": 3, "passed": True, "max_residual": residual,
                  "tolerance": 1e-7, "mode": "max<=tol", **fields}
        (tmp_path / name / "p.jsonl").write_text(json.dumps(record) + "\n", encoding="utf-8")
    assert _compare_reports().main([str(tmp_path / "a"), str(tmp_path / "b")]) == code
    capsys.readouterr()


def _public_callables():
    """(qualified name, callable) for each public function of every package
    module and each public method of its classes."""
    for info in pkgutil.iter_modules(liebundles.__path__):
        module = importlib.import_module(f"liebundles.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            yield f"{info.name}.{name}", obj
            if inspect.isclass(obj):
                for attr in vars(obj):
                    if not attr.startswith("_"):
                        yield f"{info.name}.{name}.{attr}", getattr(obj, attr)


def test_residual_functions_take_no_tolerance():
    """Residual functions only measure: none takes its own ``tol`` and none
    raises a validation error, so a suite check cannot abort before
    `make_record` judges it.  The span check of `matrix_coords` on outside
    matrices keeps its ``tol``."""
    found = [name for name, obj in _public_callables()
             if (inspect.isfunction(obj) or inspect.ismethod(obj))
             and "tol" in inspect.signature(obj).parameters
             and name != "groups.GroupDescriptor.matrix_coords"]
    assert not found, "callables that take tol:\n" + "\n".join(found)
    assert not hasattr(importlib.import_module("liebundles.errors"), "ValidationError")
