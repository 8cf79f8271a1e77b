"""The independence rule of two-sided checks: a check that compares two
computed sides fails when a fault reaches one side only, and a fault that
both sides share is a known blind spot ("common-mode").  Each row of the
table patches one named function for one run of its check alone
(``run_suite(only=[check])``) on its preset at seed 0.

A fault is placed by request, never by row of the round's stack: the round
lays its rows out builder by builder, so a stack row belongs to no fixed
request (a fault on the last stack row read 1.16e-3 under one layout and
7.31e-4 under another).  A common-mode row that starts to fail its check
moves to "fails"."""

import functools

import numpy as np
import pytest

from liebundles import calculus, connections, principal, scenarios, suites
from liebundles.calculus import FiberMap
from liebundles.gauge import GaugeJet
from liebundles.groups import GroupElement
from liebundles.scenarios import build_scenario
from liebundles.suites import run_suite

SCENARIOS = {name: build_scenario(name)
             for name in ("principal-so3", "affine-varying", "gauge-jet-so3")}
S, AFFINE = SCENARIOS["principal-so3"], SCENARIOS["affine-varying"]
SEED = 0


def _tilted(matmul):
    """Products of group elements tilted by exp(1e-3 e_1) on the right."""
    tilt = S.group.exp(S.group.algebra(1e-3 * np.eye(S.group.dim)[0])).matrix
    return lambda a, b: GroupElement(matmul(a, b).matrix @ tilt, a.descriptor, check=False)


def _scaled(fiber_map):
    """A map to `FiberMap`s (a lift, horizontal or matrix map) whose every row
    is scaled by 1.01."""
    return lambda *args: FiberMap(lambda fibers, inner: 1.01 * inner(fibers), fiber_map(*args))


def _times(f):
    """``f`` with its value × 1.01."""
    return lambda *args, **kwargs: 1.01 * f(*args, **kwargs)


def _over(f):
    """``f`` with its value ÷ 1.01."""
    return lambda *args, **kwargs: f(*args, **kwargs) / 1.01


def _times_each(f):
    """``f`` with each value of the tuple it returns × 1.01."""
    return lambda *args: tuple(1.01 * v for v in f(*args))


def _times_plan(f):
    """The plan ``f`` with the value it returns × 1.01."""
    def plan(*args):
        return 1.01 * (yield from f(*args))
    return plan


def _stretched(f):
    """``f`` evaluated at its second argument × 1.01."""
    return lambda first, w: f(first, 1.01 * w)


def _grown(v):
    """The algebra element v × 1.01."""
    return v.descriptor.algebra(1.01 * v.coords)


def _algebra_times(f):
    """``f`` with the algebra element it returns × 1.01."""
    return lambda *args: _grown(f(*args))


def _curvature_times(f):
    """``curvature`` with both paths' values × 1.01."""
    def scaled(*args):
        out = f(*args)
        return principal.CurvatureValue(_grown(out.value), _grown(out.exterior_value))
    return scaled


# (preset, check, patched object, its attribute, fault, expected); the max
# residual each row read at seed 0 follows it
TABLE = {
    # only the gh fibers of (g, h, gh) start off: 1.41e-3 against 1e-7
    "multiplicative-gh-tilted": ("principal-so3", "transport-multiplicative", GroupElement,
                                 "__matmul__", _tilted, "fails"),
    # the scaled lift is again multiplicative: 1.61e-11
    "multiplicative-lift-scaled": ("principal-so3", "transport-multiplicative", S.nu,
                                   "lift_map", _scaled, "common-mode"),
    # only the g rows, which the glued nu carries, move: 4.04e-3 against 1e-7
    "compatibility-glued-lift-scaled": ("principal-so3", "transport-compatibility",
                                        S.transport_form.nu, "lift_map", _scaled, "fails"),
    # the exterior path alone: 2.21e-2 against 1e-4
    "two-path-exterior-off": ("principal-so3", "curvature-two-path", principal,
                              "directional_derivative", _over, "fails"),
    # the bracket path alone: 2.21e-2 against 1e-4
    "two-path-bracket-off": ("principal-so3", "curvature-two-path", principal,
                             "numerical_bracket", _over, "fails"),
    # the lifts both paths differentiate, off their horizontal: 2.31e-2 against 1e-4
    "two-path-lift-scaled": ("principal-so3", "curvature-two-path",
                             principal.GeneralizedPrincipalConnection, "horizontal_deltas", _times,
                             "fails"),
    # the fiber chart both paths run in: 4.31e-11
    "two-path-chart-stretched": ("principal-so3", "curvature-two-path", principal,
                                 "_dexp_operator", _stretched, "common-mode"),
    # both paths' values alike: 3.69e-11
    "two-path-curvature-scaled": ("principal-so3", "curvature-two-path", principal, "curvature",
                                  _curvature_times, "common-mode"),
    # the stencil both paths share: 3.61e-11 (3.65e-11 clean)
    "two-path-stencil-off": ("principal-so3", "curvature-two-path", calculus,
                             "central_difference", _over, "common-mode"),
    # 8.15e-11 (8.23e-11 clean); the exterior-only fault leaves it at 8.23e-11
    "reduced-independence-stencil-off": ("principal-so3", "reduced-curvature-independence",
                                         calculus, "central_difference", _over, "common-mode"),
    # the curvature at y and at y.g alike: 8.31e-11
    "reduced-independence-curvature-scaled": ("principal-so3", "reduced-curvature-independence",
                                              principal, "curvature", _curvature_times,
                                              "common-mode"),
    # 1.37e-10
    "reduced-independence-lift-scaled": ("principal-so3", "reduced-curvature-independence",
                                         principal.GeneralizedPrincipalConnection,
                                         "horizontal_deltas", _times, "common-mode"),
    # 3.43e-11 (3.46e-11 clean)
    "tensoriality-stencil-off": ("principal-so3", "curvature-tensoriality", calculus,
                                 "central_difference", _over, "common-mode"),
    # 2.93e-11
    "tensoriality-lift-scaled": ("principal-so3", "curvature-tensoriality",
                                 principal.GeneralizedPrincipalConnection, "horizontal_deltas",
                                 _times, "common-mode"),
    # 4.49e-11
    "tensoriality-chart-stretched": ("principal-so3", "curvature-tensoriality", principal,
                                     "_dexp_operator", _stretched, "common-mode"),
    # 3.50e-11
    "tensoriality-curvature-scaled": ("principal-so3", "curvature-tensoriality", principal,
                                      "curvature", _curvature_times, "common-mode"),
    # the transported side alone: 9.59e-3 against 1e-5 (5.29e-8 clean)
    "product-rule-transport-scaled": ("principal-so3", "covariant-product-rule", connections,
                                      "_covariant_group_derivative", _times_plan, "fails"),
    # the classical side alone: 1.59e-2 against 1e-8
    "classical-side-scaled": ("principal-so3", "classical-equivalence", scenarios,
                              "classical_form_value", _algebra_times, "fails"),
    # one form of the pair alone: 1.53e-2 against 1e-7
    "difference-one-form-scaled": ("principal-so3", "connection-difference-tensorial",
                                   S.difference_pair[1], "matrix_map", _scaled, "fails"),
    # the shifted form alone: 2.06e-2 against 1e-7
    "affine-difference-one-form-scaled": ("affine-varying", "connection-difference-tensorial",
                                          AFFINE.difference_pair[1], "matrix_map", _scaled,
                                          "fails"),
    # the first form alone, the shifted one building its own values: 2.06e-2 against 1e-7
    "affine-difference-first-form-scaled": ("affine-varying", "connection-difference-tensorial",
                                            AFFINE.difference_pair[0], "matrix_map", _scaled,
                                            "fails"),
    # the linear flow alone, against the group transport's derivative: 1.17e-2 against 1e-5
    # (3.34e-14 clean)
    "algebra-consistency-flow-scaled": ("principal-so3", "algebra-transport-consistency",
                                        connections, "integrate_linear", _times, "fails"),
    # a scaled flow is again linear: 1.09e-15
    "algebra-linearity-flow-scaled": ("principal-so3", "algebra-transport-linearity",
                                      connections, "integrate_linear", _times, "common-mode"),
    # a scaled flow still intertwines Ad: 2.14e-11
    "algebra-adjoint-flow-scaled": ("principal-so3", "algebra-transport-adjoint", connections,
                                    "integrate_linear", _times, "common-mode"),
    # the oracle's form-free flow alone: 7.45e-3 against 1e-7 (1.15e-12 clean)
    "affine-oracle-flow-off": ("affine-varying", "affine-transport-self-consistency", suites,
                               "affine_transport_flow", _times, "fails"),
    # the transported side alone: 5.78e-3 against 1e-7
    "affine-horizontal-map-scaled": ("affine-varying", "affine-transport-self-consistency",
                                     AFFINE.omega, "horizontal_map", _scaled, "fails"),
    # the curve both sides ride: 1.17e-12
    "affine-curve-velocity-off": ("affine-varying", "affine-transport-self-consistency",
                                  AFFINE.curves["main"], "velocity", _times, "common-mode"),
    # the finite-difference side alone: 1.49e-2 against 1e-6 (1.04e-10 clean)
    "jet-adjoint-fd-off": ("gauge-jet-so3", "jet-adjoint-fd-cross-check", suites,
                           "product_velocity", _times, "fails"),
    # the closed-form side alone: 1.49e-2 against 1e-6
    "jet-adjoint-closed-form-off": ("gauge-jet-so3", "jet-adjoint-fd-cross-check", GaugeJet,
                                    "adjoint", _times_each, "fails"),
}


@functools.cache
def _clean(preset, check):
    (record,) = run_suite(SCENARIOS[preset], seed=SEED, only=[check])
    assert record.passed, check
    return record.max_residual


@pytest.mark.parametrize("preset, check, target, attr, fault, expected", TABLE.values(), ids=TABLE)
def test_a_two_sided_check_fails_a_one_sided_fault_only(monkeypatch, preset, check, target, attr,
                                                        fault, expected):
    """A "fails" row fails its check; a "common-mode" row passes it.  Either
    fault reaches the check: its max residual moves off the clean run's."""
    clean = _clean(preset, check)
    monkeypatch.setattr(target, attr, fault(getattr(target, attr)))
    (record,) = run_suite(SCENARIOS[preset], seed=SEED, only=[check])
    assert record.max_residual != clean, "the fault did not reach the check"
    assert record.passed == (expected == "common-mode"), record.max_residual
