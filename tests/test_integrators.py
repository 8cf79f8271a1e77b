"""Group integrator tests: order, drift control, closed-form comparisons."""

import dataclasses
import re

import numpy as np
import pytest

from liebundles.calculus import BaseCurve, FiberMap
from liebundles.errors import DescriptorError, InstabilityError, StiffnessError, UsageError
from liebundles.groups import (GroupDescriptor, _orthogonal_retract, so3_descriptor,
                              translation_descriptor)
from liebundles.integrators import (Transport, integrate_linear, integrate_on_group,
                                    integrate_stack, transport)

from _oracles import observed_order, taylor_expm

SO3 = so3_descriptor()
T2 = translation_descriptor(2)


def test_zero_rhs_returns_initial_element():
    g0 = SO3.exp(SO3.algebra([0.4, -0.1, 0.2]))
    res = integrate_on_group(lambda t, g: SO3.zero(), g0, (0.0, 1.0), step=0.1)
    assert np.allclose(res.element.matrix, g0.matrix, atol=1e-14)
    assert res.error_estimate <= 1e-14


def test_abelian_constant_rhs_is_quadrature():
    g0 = T2.exp(T2.algebra([1.0, 2.0]))
    c = T2.algebra([0.5, -1.5])
    res = integrate_on_group(lambda t, g: c, g0, (0.0, 1.0), step=0.05)
    assert np.allclose(T2.log(res.element).coords, [1.5, 0.5], atol=1e-12)


def test_so3_constant_rhs_matches_exponential_oracle():
    g0 = SO3.exp(SO3.algebra([0.7, 0.0, 0.0]))
    e3 = SO3.algebra([0.0, 0.0, 1.0])
    res = integrate_on_group(lambda t, g: e3, g0, (0.0, np.pi), step=np.pi / 200)
    expected = taylor_expm(np.pi * e3.matrix) @ g0.matrix
    assert np.linalg.norm(res.element.matrix - expected) <= 1e-10


def test_integrator_order_at_least_3_6():
    # time- and state-dependent rhs keeps the problem contentful
    def rhs(t, g):
        return SO3.algebra([0.6 * np.sin(2 * t), 0.4 * np.cos(t), 0.5 * t])

    g0 = SO3.identity()
    ref = integrate_on_group(rhs, g0, (0.0, 1.0), step=1.0 / 1024, with_error_estimate=False)
    errs = []
    for n in (16, 32, 64):
        res = integrate_on_group(rhs, g0, (0.0, 1.0), step=1.0 / n, with_error_estimate=False)
        errs.append(np.linalg.norm(res.element.matrix - ref.element.matrix))
    assert observed_order(errs) >= 3.6


def test_membership_drift_after_1000_steps():
    def rhs(t, g):
        return SO3.algebra([np.sin(t), np.cos(2 * t), 0.3])

    res = integrate_on_group(
        rhs, SO3.identity(), (0.0, 10.0), step=0.01, with_error_estimate=False
    )
    assert res.steps == 1000
    assert res.membership_residual <= 1e-9


def test_step_underflow_raises_stiffness_error():
    with pytest.raises(StiffnessError):
        integrate_on_group(lambda t, g: SO3.zero(), SO3.identity(), (0.0, 1.0), step=1e-16)


@pytest.mark.parametrize("step", [float("nan"), 0.0, -0.1, 1e-16])
def test_both_integrators_refuse_a_step_below_the_floor_or_nan(step):
    """A NaN step fails every comparison, so it is a StiffnessError like a
    step at or below the floor, not numpy's error on its step count."""
    with pytest.raises(StiffnessError):
        integrate_stack(lambda times: None, SO3, np.eye(3), (0.0, 1.0), step=step)
    with pytest.raises(StiffnessError):
        integrate_linear(lambda times: None, np.array([1.0, 0.0]), (0.0, 1.0), step=step)


def test_error_estimate_tracks_true_error():
    def rhs(t, g):
        return SO3.algebra([0.9 * np.sin(3 * t), 0.0, 0.8])

    res = integrate_on_group(rhs, SO3.identity(), (0.0, 1.0), step=0.05)
    ref = integrate_on_group(rhs, SO3.identity(), (0.0, 1.0), step=0.05 / 16, with_error_estimate=False)
    true_err = np.linalg.norm(res.element.matrix - ref.element.matrix)
    assert res.error_estimate >= 0.05 * true_err
    assert res.error_estimate <= 1e3 * max(true_err, 1e-16)


def test_linear_integrator_matches_matrix_exponential():
    k = np.array([[0.0, 1.0], [-1.0, 0.0]])
    v = integrate_linear(lambda times: np.broadcast_to(k, times.shape + k.shape),
                         np.array([1.0, 0.0]), (0.0, np.pi / 2), step=1e-3)
    expected = taylor_expm((np.pi / 2) * k) @ np.array([1.0, 0.0])
    assert np.allclose(v, expected, atol=1e-9)
    assert np.allclose(v, [0.0, -1.0], atol=1e-9)


def test_linear_blowup_names_its_columns_and_time():
    # K = 1e5 I overflows the one nonzero column at the 21st step of 0.1;
    # the zero columns stay zero
    v0 = np.zeros((2, 3))
    v0[:, 1] = [1.0, -2.0]
    k = 1e5 * np.eye(2)
    with pytest.raises(InstabilityError, match=r"non-finite values in columns \[1\] at t=2\.1000"):
        integrate_linear(lambda times: np.broadcast_to(k, times.shape + k.shape), v0, (0.0, 5.0),
                         step=0.1)
    # on a family of two curves, curve 1's column 2 alone blows up: the
    # message names that pair, not column 2 of the pooled curves
    family = np.zeros((2, 2, 3))
    family[1, :, 2] = [1.0, -2.0]
    with pytest.raises(InstabilityError,
                       match=r"non-finite values in \(curve, column\) pairs \[\(1, 2\)\] at t=2\.1000"):
        integrate_linear(lambda times: np.broadcast_to(k, times.shape + (2,) + k.shape), family,
                         (0.0, 5.0), step=0.1)


# ---------------------------------------------------------------------------
# stacked integration: one (B, m, m) run against B separate runs
# ---------------------------------------------------------------------------


def so3_field(times):
    """Velocity Ad_g a(t) - a(t): it vanishes at the identity, so an identity
    row stays put with angle 0 at every stage."""
    a = np.stack([0.9 * np.sin(3 * times), np.full_like(times, 0.4), -0.7 * np.cos(times)], -1)
    return FiberMap(lambda g, a: g @ a - a, a)


def translation_field(times):
    """Linear velocity -K(t) v in the translation part v of each fiber."""
    k = np.stack([0.5 * np.cos(times), np.full_like(times, 0.2), np.full_like(times, -0.3),
                  0.4 * times], -1).reshape(times.shape + (2, 2))
    return FiberMap(lambda g, k: -(k @ T2.log_coords(g)[..., None])[..., 0], k)


@pytest.mark.parametrize("desc, field", [(SO3, so3_field), (T2, translation_field)])
def test_stack_matches_separate_runs(desc, field):
    rng = np.random.default_rng(40)
    fibers = [desc.identity()] + [desc.random_element(rng) for _ in range(3)]
    stack = np.stack([g.matrix for g in fibers])
    together = integrate_stack(field, desc, stack, (0.0, 1.0), step=0.01, with_error_estimate=True)
    assert together.element.matrix.shape == stack.shape
    assert together.error_estimate.shape == together.membership_residual.shape == (len(fibers),)
    for b, g in enumerate(fibers):
        alone = integrate_stack(field, desc, g.matrix, (0.0, 1.0), step=0.01,
                                with_error_estimate=True)
        assert np.array_equal(together.element.matrix[b], alone.element.matrix)
        assert together.error_estimate[b] == alone.error_estimate
        assert together.membership_residual[b] == alone.membership_residual
        assert isinstance(alone.error_estimate, float)
        assert isinstance(alone.membership_residual, float)
        assert together.steps == alone.steps == 100
    assert np.array_equal(together.element.matrix[0], np.eye(desc.matrix_dim))


def _scaled(g):
    return 1.3 * g


def _sheared(g):
    out = g.copy()
    out[0, 1] += 1e-3
    return out


@pytest.mark.parametrize("desc, field, spoil", [(SO3, so3_field, _scaled),
                                                (T2, translation_field, _sheared)])
def test_stack_refuses_a_non_member_initial_fiber(desc, field, spoil):
    """The initial fibers are checked once; every later fiber is exp of a
    velocity times a member, retracted at each step."""
    rng = np.random.default_rng(43)
    good = [desc.random_element(rng).matrix for _ in range(3)]
    bad = spoil(good[1])
    with pytest.raises(DescriptorError, match=r"membership in rows \[1\] "):
        integrate_stack(field, desc, np.stack([good[0], bad, good[2]]), (0.0, 1.0), step=0.1)
    with pytest.raises(DescriptorError, match=r"membership in rows \[0, 2\] "):
        integrate_stack(field, desc, np.stack([bad, good[0], bad]), (0.0, 1.0), step=0.1)
    with pytest.raises(DescriptorError, match=f"violates {desc.name} membership \\(residual"):
        integrate_stack(field, desc, bad, (0.0, 1.0), step=0.1)
    integrate_stack(field, desc, np.stack(good), (0.0, 1.0), step=0.1)


@pytest.mark.parametrize("desc, field", [(SO3, so3_field), (T2, translation_field)])
def test_stack_names_the_non_finite_initial_fibers(desc, field):
    """A non-finite initial fiber is refused by the membership check, by row,
    before the integrator's own non-finite guard could report it at t0."""
    rng = np.random.default_rng(44)
    good = [desc.random_element(rng).matrix for _ in range(3)]
    bad = good[2].copy()
    bad[0, -1] = np.nan
    with pytest.raises(DescriptorError, match=r"membership in rows \[2\] \(non-finite entries\)"):
        integrate_stack(field, desc, np.stack([good[0], good[1], bad]), (0.0, 1.0), step=0.1)
    with pytest.raises(DescriptorError, match=r"membership \(non-finite entries\)"):
        integrate_stack(field, desc, bad, (0.0, 1.0), step=0.1)


def test_stack_drift_after_1000_steps():
    rng = np.random.default_rng(41)
    stack = np.stack([SO3.random_element(rng).matrix for _ in range(4)])

    def field(times):
        a = np.stack([np.sin(times), np.cos(2 * times), np.full_like(times, 0.3)], -1)
        return FiberMap(lambda g, a: g @ a - a + np.array([0.2, -0.1, 0.4]), a)

    result = integrate_stack(field, SO3, stack, (0.0, 10.0), step=0.01)
    assert result.steps == 1000
    assert result.membership_residual.shape == (4,)
    assert np.max(result.membership_residual) <= 1e-9


def test_stack_retraction_takes_svd_fallback_per_row():
    rng = np.random.default_rng(42)
    near = SO3.random_element(rng).matrix + 1e-7 * rng.standard_normal((3, 3))
    drifted = 1.3 * SO3.random_element(rng).matrix
    # large drift and a negative determinant: the polar factor must be flipped
    reflected = 1.2 * SO3.random_element(rng).matrix @ np.diag([1.0, 1.0, -1.0])
    stack = np.stack([near, drifted, reflected])
    out = SO3.retract(stack)
    for row, original in zip(out, stack):
        assert np.max(np.abs(row - SO3.retract(original))) <= 1e-15
        assert np.linalg.norm(row.T @ row - np.eye(3)) <= 1e-14
        assert abs(np.linalg.det(row) - 1.0) <= 1e-14
    u, _, vt = np.linalg.svd(drifted)
    assert np.max(np.abs(out[1] - u @ vt)) <= 1e-14
    # the near row takes the Newton path and moves by about its drift
    assert np.max(np.abs(out[0] - near)) <= 1e-6


def test_stack_non_finite_row_raises_instability():
    stack = np.stack([SO3.identity().matrix] * 3)

    def velocity(g):
        v = np.full((3, 3), 0.1)
        v[1] = np.nan
        return v

    def field(times):
        return [velocity] * len(times)

    with pytest.raises(InstabilityError, match=r"rows \[1\]"):
        integrate_stack(field, SO3, stack, (0.0, 1.0), step=0.1)


def test_stack_shape_is_checked():
    with pytest.raises(UsageError):
        integrate_stack(so3_field, SO3, np.zeros((2, 4, 4)), (0.0, 1.0), step=0.1)


@pytest.mark.parametrize("desc, field", [(SO3, so3_field), (T2, translation_field)])
def test_a_step_costs_four_exps_one_retraction_and_four_stage_maps(desc, field, monkeypatch):
    """The per-step budget: the field is asked once per run, and each of the
    N steps makes 4 exp-hook calls, 1 retraction, 4 stage-map applications
    and, on a non-abelian fiber only, 3 ad_matrix calls (one per dexp^-1).
    In a round of two legs the loop runs N_max steps in two epochs, one per
    leg end: each builder is asked once per epoch in which it has live rows,
    and its maps applied 4 times per step of its own."""
    calls = {"field": 0, "exp": 0, "retraction": 0, "stage": 0, "ad_matrix": 0}

    def counted(name, fn):
        def run(*args):
            calls[name] += 1
            return fn(*args)
        return run

    counting = dataclasses.replace(desc, exp_hook=counted("exp", desc.exp_hook),
                                   retraction=counted("retraction", desc.retraction))
    monkeypatch.setattr(GroupDescriptor, "ad_matrix",
                        counted("ad_matrix", GroupDescriptor.ad_matrix))

    def asked(field, name="stage"):
        def ask(times):
            calls["field"] += 1
            maps = field(times)
            return [counted(name, maps[j]) for j in range(len(times))]
        return ask

    rng = np.random.default_rng(45)
    stack = np.stack([desc.random_element(rng).matrix for _ in range(3)])
    n = 37
    result = integrate_stack(asked(field), counting, stack, (0.0, 1.0), step=1.0 / n)
    assert result.steps == n
    # the checked initial fibers and the end residual are measured once each
    non_abelian = not desc.abelian
    assert calls == {"field": 1, "exp": 4 * n, "retraction": n + 2, "stage": 4 * n,
                     "ad_matrix": 3 * n if non_abelian else 0}
    plain = integrate_stack(field, desc, stack, (0.0, 1.0), step=1.0 / n)
    assert np.array_equal(result.element.matrix, plain.element.matrix)

    # a round: 37 steps on [0, 1] for two fibers, 6 on [0, 0.3] for one, each
    # leg's field at the curve's x = t / b; the long leg's builder is asked in
    # both epochs, the short one's in the first; the round measures the
    # initial fibers once and no end residual
    calls.update(dict.fromkeys(calls, 0), short=0)
    requests = [Transport(lambda x, u: asked(field)(x[:, 0]), BaseCurve.line([0.0], [1.0]),
                          [counting.element(stack[:2], check=False)], 1.0 / n),
                Transport(lambda x, u: asked(field, "short")(x[:, 0]),
                          BaseCurve.line([0.0], [1.0], (0.0, 0.3)),
                          [counting.element(stack[2], check=False)], 0.05)]
    ends = transport(requests)
    assert calls == {"field": 3, "exp": 4 * n, "retraction": n + 1, "stage": 4 * n,
                     "short": 4 * 6, "ad_matrix": 3 * n if non_abelian else 0}
    for request, got in zip(requests, ends):
        (alone,) = transport([request])
        assert all(np.array_equal(a, b) for a, b in zip(got, alone))


def test_a_round_names_a_non_finite_row_as_its_leg_alone_does():
    """A row of the shorter leg, which sits behind the longer leg's rows in
    the loop's stack, turns non-finite: the round names its row within its
    leg and the leg's own t, as a run of that request alone does."""
    rng = np.random.default_rng(46)

    def builder(poison_after):
        def lift(x, u):
            a = so3_field(x[:, 0]).parts[0]
            return FiberMap(lambda g, a, poisoned: np.where(
                (np.arange(len(g)) == 1)[:, None] & poisoned, np.nan, np.matvec(g, a) - a),
                a, x[:, 0] > poison_after)
        return lift

    def fibers(count):
        return [SO3.exp(SO3.algebra(rng.uniform(-1.0, 1.0, (count, 3))))]

    long = Transport(builder(np.inf), BaseCurve.line([0.0], [1.0]), fibers(2), 1.0 / 40)
    short = Transport(builder(0.6), BaseCurve.line([0.0], [1.0], (0.0, 0.5)), fibers(3), 0.05)
    with pytest.raises(InstabilityError) as alone:
        transport([short])
    with pytest.raises(InstabilityError) as merged:
        transport([long, short])
    assert re.fullmatch(r"integration produced non-finite fibers in rows \[1\] at t=0\.3\d+",
                        str(alone.value))
    assert str(merged.value) == str(alone.value)


# the stretch generator diag(1, -1, 0) under the orthogonal retraction: its
# exp leaves SO(3) at once, so the retraction measures a residual that grows
# with the step
STRETCH = GroupDescriptor(name="stretch", basis=np.diag([1.0, -1.0, 0.0])[None],
                          structure_constants=np.zeros((1, 1, 1)),
                          retraction=_orthogonal_retract)


def stretching(rows):
    """A builder whose fibers in ``rows`` stretch at unit speed; the others
    rest.  Its one part, the points' first coordinate, only carries the
    stage axis that the loop slices."""
    def lift(x, u):
        return FiberMap(lambda g, _: np.isin(np.arange(len(g)), rows)[:, None] * 1.0, x[:, 0])
    return lift


def test_membership_blowup_names_its_row_and_time():
    """The residual the retraction measures exceeds 1e6 membership_tol at
    the first step: the guard names the row and its t."""
    with pytest.raises(InstabilityError) as raised:
        integrate_stack(lambda times: [lambda g: np.ones((len(g), 1))] * len(times),
                        STRETCH, np.eye(3), (0.0, 1.0), step=0.05)
    assert str(raised.value) == "membership residual blew up to 1.418e-01 in row 0 at t=0.0500"


def test_a_round_names_a_membership_blowup_as_its_leg_alone_does():
    """Row 1 of the shorter leg, which sits behind the longer leg's resting
    rows in the loop's stack, leaves the group: the round names its row
    within its leg and the leg's own t, as a run of that request alone does."""
    def fibers(count):
        return [STRETCH.element(np.stack([np.eye(3)] * count))]

    long = Transport(stretching([]), BaseCurve.line([0.0], [1.0]), fibers(2), 1.0 / 40)
    short = Transport(stretching([1]), BaseCurve.line([0.0], [1.0], (0.2, 0.5)), fibers(3), 0.05)
    with pytest.raises(InstabilityError) as alone:
        transport([short])
    with pytest.raises(InstabilityError) as merged:
        transport([long, short])
    assert str(alone.value) == "membership residual blew up to 1.418e-01 in row 1 at t=0.2500"
    assert str(merged.value) == str(alone.value)
