"""The independence rule of two-sided checks: a check that compares two
computed sides fails when a fault reaches one side only, and a fault that
both sides share is a known blind spot ("common-mode").  Each row of the
table patches one named function for one run of its check alone
(``run_suite(only=[check])``) on principal-so3 at seed 0.

A fault is placed by request, never by row of the round's stack: the round
lays its rows out builder by builder, so a stack row belongs to no fixed
request (a fault on the last stack row read 1.16e-3 under one layout and
7.31e-4 under another).  A common-mode row that starts to fail its check
moves to "fails"."""

import functools

import numpy as np
import pytest

from liebundles.calculus import FiberMap
from liebundles.groups import GroupElement
from liebundles.scenarios import build_scenario
from liebundles.suites import run_suite

S = build_scenario("principal-so3")
SEED = 0


def _tilted(matmul):
    """Products of group elements tilted by exp(1e-3 e_1) on the right."""
    tilt = S.group.exp(S.group.algebra(1e-3 * np.eye(S.group.dim)[0])).matrix
    return lambda a, b: GroupElement(matmul(a, b).matrix @ tilt, a.descriptor, check=False)


def _scaled(lift_map):
    """A lift map whose every row is scaled by 1.01."""
    return lambda x, u: FiberMap(lambda fibers, inner: 1.01 * inner(fibers), lift_map(x, u))


# (check, patched object, its attribute, fault, expected); the max residual
# each row read at seed 0 follows it
TABLE = {
    # only the gh fibers of (g, h, gh) start off: 1.41e-3 against 1e-7
    "multiplicative-gh-tilted": ("transport-multiplicative", GroupElement, "__matmul__", _tilted,
                                 "fails"),
    # the scaled lift is again multiplicative: 1.61e-11
    "multiplicative-lift-scaled": ("transport-multiplicative", S.nu, "lift_map", _scaled,
                                   "common-mode"),
    # only the g rows, which the glued nu carries, move: 4.04e-3 against 1e-7
    "compatibility-glued-lift-scaled": ("transport-compatibility", S.transport_form.nu,
                                        "lift_map", _scaled, "fails"),
}


@functools.cache
def _clean(check):
    (record,) = run_suite(S, seed=SEED, only=[check])
    assert record.passed, check
    return record.max_residual


@pytest.mark.parametrize("check, target, attr, fault, expected", TABLE.values(), ids=TABLE)
def test_a_two_sided_check_fails_a_one_sided_fault_only(monkeypatch, check, target, attr, fault,
                                                        expected):
    """A "fails" row fails its check; a "common-mode" row passes it.  Either
    fault reaches the check: its max residual moves off the clean run's."""
    clean = _clean(check)
    monkeypatch.setattr(target, attr, fault(getattr(target, attr)))
    (record,) = run_suite(S, seed=SEED, only=[check])
    assert record.max_residual != clean, "the fault did not reach the check"
    assert record.passed == (expected == "common-mode"), record.max_residual
