"""Base schedules: each integration asks its field once for every stage time
of the run, and the step loop does only fiber work.  The scheduled transports
must return exactly the numbers of the per-stage loops in _oracles, with no
tolerance, and every batched x-part must equal its lone evaluations."""

import numpy as np
import pytest

from liebundles import scenarios
from liebundles.bundles import TotalPoint
from liebundles.calculus import BaseCurve, FiberMap, Polynomial
from liebundles.connections import (
    _algebra_flow,
    _restricted_curve,
    _reversed_curve,
    transport_group,
)
from liebundles.groups import so3_descriptor
from liebundles.integrators import integrate_linear, integrate_stack
from liebundles.principal import WeightRamp, transport_total
from liebundles.scenarios import affine_transport_flow, build_scenario

from _oracles import (
    algebra_flow_oracle,
    algebra_generator_oracle,
    classical_rk4_oracle,
    transport_group_oracle,
    transport_total_oracle,
)

SCENARIOS = {name: build_scenario(name)
             for name in ("principal-so3", "affine-constant", "affine-varying")}
STEP = 0.02


def _nus(s):
    out = {f"nus.{key}": nu for key, nu in s.nus.items()}
    out["transport_form.nu"] = s.transport_form.nu
    out["omega.nu"] = s.omega.nu  # the trivial group connection on principal-so3
    return out


def _forms(s):
    out = {f"forms.{key}": omega for key, omega in s.forms.items()}
    out["transport_form"] = s.transport_form
    return out


def _curves(s, rng):
    """A lone curve, and a family of 3 wiggles ridden twice (6 rows), with
    one fiber per row."""
    lone = s.curves["main"]
    n = s.chart.dim
    start = rng.uniform(-0.5, 0.5, (3, n))
    family = BaseCurve.wiggle(start, -start, 0.08 * rng.uniform(-1, 1, (3, n)),
                              (0.0, 0.4)).repeat(2)
    fibers = np.stack([s.group.random_element(rng).matrix for _ in range(6)])
    return {"lone": (lone, fibers), "family": (family, fibers)}


TRANSPORT_CASES = [(name, label, kind, est)
                   for name, s in SCENARIOS.items()
                   for label in list(_nus(s)) + list(_forms(s))
                   for kind in ("lone", "family") for est in (False, True)]


@pytest.mark.parametrize("name, label, kind, est", TRANSPORT_CASES)
def test_scheduled_transport_equals_per_stage_oracle(name, label, kind, est):
    s = SCENARIOS[name]
    curve, fibers = _curves(s, np.random.default_rng(5))[kind]
    g0 = s.group.element(fibers)
    if label in _nus(s):
        nu = _nus(s)[label]
        got = transport_group(nu, curve, g0, STEP, with_error_estimate=est)
        end, estimate = transport_group_oracle(nu, curve, g0, STEP, est)
    else:
        omega = _forms(s)[label]
        y0 = TotalPoint(curve.position(curve.a), g0)
        _, got = transport_total(omega, curve, y0, STEP, with_error_estimate=est)
        end, estimate = transport_total_oracle(omega, curve, y0, STEP, est)
    assert np.array_equal(got.element.matrix, end)
    assert (got.error_estimate is None) == (estimate is None)
    if est:
        assert np.array_equal(got.error_estimate, estimate)


FLOW_CASES = [(name, label, kind) for name, s in SCENARIOS.items()
              for label in _nus(s) for kind in ("lone", "family")]


@pytest.mark.parametrize("name, label, kind", FLOW_CASES)
def test_scheduled_algebra_flow_equals_per_stage_oracle(name, label, kind):
    s = SCENARIOS[name]
    nu = _nus(s)[label]
    curve, _ = _curves(s, np.random.default_rng(6))[kind]
    rng = np.random.default_rng(7)
    d = s.group.dim
    columns = rng.standard_normal((d, 2) if kind == "lone" else (6, d, 2))
    assert np.array_equal(_algebra_flow(nu, curve, columns, STEP),
                          algebra_flow_oracle(nu, curve, columns, STEP))


def _near_vector_form(got, want):
    """The increment form of a linear RK4 step is the vector form up to
    roundoff: 1e-14 max(1, |v|), where the worst gap seen is 1.8e-16."""
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("name, label, kind", FLOW_CASES)
def test_algebra_flow_stays_within_roundoff_of_the_vector_form(name, label, kind):
    s = SCENARIOS[name]
    nu = _nus(s)[label]
    curve, _ = _curves(s, np.random.default_rng(6))[kind]
    d = s.group.dim
    columns = np.random.default_rng(7).standard_normal((d, 2) if kind == "lone" else (6, d, 2))
    _near_vector_form(_algebra_flow(nu, curve, columns, STEP),
                      classical_rk4_oracle(algebra_generator_oracle(nu, curve), columns,
                                           (curve.a, curve.b), STEP))


@pytest.mark.parametrize("name", ["affine-constant", "affine-varying"])
def test_affine_flow_stays_within_roundoff_of_the_vector_form(monkeypatch, name):
    """`affine_transport_flow` at the step/4 of its suite check: its one
    `integrate_linear` call against the vector form on the same K(t)."""
    s = SCENARIOS[name]
    calls = []

    def recorded(matrix_fn, columns, interval, step):
        got = integrate_linear(matrix_fn, columns, interval, step)
        calls.append((matrix_fn, columns, interval, step, got))
        return got

    monkeypatch.setattr(scenarios, "integrate_linear", recorded)
    v0 = np.random.default_rng(11).uniform(-0.5, 0.5, (5, s.group.dim))
    affine_transport_flow(s, s.curves["main"], v0, s.config["step"] / 4.0)
    ((matrix_fn, columns, interval, step, got),) = calls
    _near_vector_form(got, classical_rk4_oracle(lambda t: matrix_fn(np.array([t]))[0],
                                                columns, interval, step))


def _curve_kinds():
    rng = np.random.default_rng(8)
    wiggle = BaseCurve.wiggle([-0.5, -0.4], [0.5, 0.45], [0.05, -0.07], (0.0, 0.4))
    family = BaseCurve.wiggle(rng.uniform(-0.5, 0.5, (3, 2)), rng.uniform(-0.5, 0.5, (3, 2)),
                              0.08 * rng.uniform(-1, 1, (3, 2)), (0.1, 0.5))
    return {
        "line": BaseCurve.line([-0.6, -0.4], [0.6, 0.5], (0.0, 0.4)),
        "loop": BaseCurve.loop([0.1, -0.2], 0.45, (0.0, 1.0), axes=(1, 0)),
        "wiggle": wiggle,
        "wiggle-family": family,
        "repeat": family.repeat(3),
        "restricted": _restricted_curve(wiggle, 0.1, 0.25),
        "reversed": _reversed_curve(_restricted_curve(family, 0.2, 0.3)),
    }


@pytest.mark.parametrize("kind", list(_curve_kinds()))
def test_curve_at_an_array_of_times_equals_per_time_calls(kind):
    curve = _curve_kinds()[kind]
    times = np.concatenate([[curve.a, curve.b],
                            np.random.default_rng(9).uniform(curve.a, curve.b, 50)])
    for fn in (curve.position, curve.velocity):
        batch = fn(times)
        lone = [np.asarray(fn(t)) for t in times.tolist()]
        assert batch.shape == (len(times),) + lone[0].shape
        for row, want in zip(batch, lone):
            assert np.array_equal(row, want)


def test_weights_and_polynomials_take_any_leading_axes():
    rng = np.random.default_rng(10)
    x = rng.uniform(-0.5, 0.5, (4, 3, 2))
    x[0, :, 0] = [-0.3, 0.0, 0.3]  # across the ramp: weights 1, between and 0
    ramp = WeightRamp(-0.2, 0.2, axis=0)
    poly = Polynomial({"2,0": 0.8, "0,1": -0.3, "1,1": 0.4, "0,0": 0.1}, 2)
    arr = Polynomial.array({(0, 1): {"1,0": 0.5}, (1, 0): {"0,2": -1.5, "0,0": 0.2}},
                           2, (2, 2))
    for fn, shape in ((ramp, ()), (poly, ()), (arr, (2, 2))):
        batch = fn(x)
        assert np.shape(batch) == (4, 3) + shape
        for i in range(4):
            for c in range(3):
                assert np.array_equal(batch[i, c], fn(x[i, c]))


SO3 = so3_descriptor()


def _recording_field(calls):
    def field(times):
        calls.append(np.array(times))
        a = np.stack([np.sin(times), np.cos(times), 0.3 * times], -1)
        return FiberMap(lambda g, a: g @ a - a, a)

    return field


def _expected_times(t0, t1, n):
    """The stage times of a step-by-step loop in plain floats."""
    h = (t1 - t0) / n
    out = [t0]
    for k in range(n):
        out += [t0 + k * h + 0.5 * h, t0 + (k + 1) * h]
    return np.array(out)


@pytest.mark.parametrize("est", [False, True])
def test_each_run_asks_its_field_once_for_every_stage_time(est):
    t0, t1, step = 0.1, 0.73, 0.013
    n = int(np.ceil((t1 - t0) / step))
    calls = []
    integrate_stack(_recording_field(calls), SO3, np.eye(3), (t0, t1), step,
                    with_error_estimate=est)
    assert len(calls) == (2 if est else 1)
    assert np.array_equal(calls[0], _expected_times(t0, t1, n))
    if est:
        assert np.array_equal(calls[1], _expected_times(t0, t1, 2 * n))

    linear_calls = []

    def k_matrices(times):
        linear_calls.append(np.array(times))
        return np.cos(times)[:, None, None] * np.eye(2)

    integrate_linear(k_matrices, np.ones(2), (t0, t1), step)
    assert len(linear_calls) == 1
    assert np.array_equal(linear_calls[0], _expected_times(t0, t1, n))
