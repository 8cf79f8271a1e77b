"""Generalized connection tests: gluing, lifts, transports, curvature."""

import numpy as np
import pytest

from liebundles.bundles import FiberedAction, LieGroupBundle, Tangent, TotalPoint, TotalSpace
from liebundles.calculus import AlgebraOneForm, BaseCurve, ChartDomain, Polynomial
from liebundles.connections import (
    LieGroupBundleConnection,
    transport_group,
    validate_group_connection,
)
from liebundles.errors import ConstructionError
from liebundles.groups import GroupElement, so3_descriptor, translation_descriptor
from liebundles.principal import (
    GeneralizedPrincipalConnection,
    WeightRamp,
    build_canonical_connection,
    build_two_chart_connection,
    connection_difference,
    constant_weight,
    curvature,
    equivariant_product_connection_check,
    horizontal_transform_check,
    jet_equivariance_check,
    necessity_check,
    reduced_curvature_residual,
    transport_compatibility_check,
    transport_total,
    validate_principal_connection,
)
from liebundles.scenarios import build_scenario

from _oracles import (
    affine_form_oracle,
    canonical_form_oracle,
    horizontal_lift_oracle,
    observed_order,
    twisted_form_oracle,
)

SO3 = so3_descriptor()
T1 = translation_descriptor(1)
CHART = ChartDomain(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))


def so3_action():
    return FiberedAction(TotalSpace(CHART, CHART, SO3), LieGroupBundle(CHART, SO3))


def abelian_action():
    return FiberedAction(TotalSpace(CHART, CHART, T1), LieGroupBundle(CHART, T1))


ACTION = so3_action()
OMEGA_CANON, NU_CANON = build_canonical_connection(ACTION)

TWO_CHART = build_two_chart_connection(
    ACTION,
    sigma_gen=SO3.algebra([0.0, 1.0, 0.0]),
    p=Polynomial({"1,0": 0.8, "0,1": 0.3}, 2),
    tau_gen=SO3.algebra([1.0, 0.0, 0.0]),
    r=Polynomial({"0,1": 0.6, "1,1": 0.4}, 2),
    ramp=WeightRamp(-0.2, 0.2, axis=0),
)
OMEGA_GLUED, NU_GLUED = TWO_CHART

LINE = BaseCurve.line([-0.5, -0.4], [0.5, 0.45], interval=(0.0, 0.4))


def test_single_chart_canonical_validates():
    rng = np.random.default_rng(0)
    report = validate_principal_connection(OMEGA_CANON, rng, samples=200)
    assert report["complementarity"] <= 1e-12
    assert report["ad_equivariance"] <= 1e-12


def test_two_chart_glued_validates():
    rng = np.random.default_rng(1)
    report = validate_principal_connection(OMEGA_GLUED, rng, samples=200)
    assert report["complementarity"] <= 1e-8
    assert report["ad_equivariance"] <= 1e-8
    nu_report = validate_group_connection(NU_GLUED, rng, samples=100)
    assert nu_report["cocycle"] <= 1e-9
    assert max(nu_report.values()) <= 1e-6
    # the glued weights form a partition of unity: they sum to one, none negative
    for _ in range(200):
        x = CHART.sample(rng)
        weights = [w(x) for w, _ in OMEGA_GLUED.pieces]
        assert abs(sum(weights) - 1.0) <= 1e-8 and min(weights) >= -1e-8


def test_abelian_canonical_is_fiber_coordinate_differential():
    action = abelian_action()
    omega, _ = build_canonical_connection(action)
    rng = np.random.default_rng(2)
    y = action.space.random_point(rng)
    t = Tangent(np.array([0.3, -0.2]), T1.algebra([0.7]))
    assert np.allclose(omega.value(y, t).coords, [0.7])


def test_horizontal_lift_annihilated_and_zero_input():
    rng = np.random.default_rng(3)
    for omega in (OMEGA_CANON, OMEGA_GLUED):
        y = ACTION.space.random_point(rng)
        u = rng.standard_normal(2)
        hor = omega.horizontal_lift(y, u)
        assert np.linalg.norm(omega.value(y, hor).coords) <= 1e-12
        zero = omega.horizontal_lift(y, np.zeros(2))
        assert zero.norm() <= 1e-12


def test_transport_total_trivial_keeps_fiber():
    rng = np.random.default_rng(4)
    y = ACTION.space.random_point(rng)
    end, res = transport_total(OMEGA_CANON, LINE, y, step=5e-3)
    assert np.allclose(end.fiber.matrix, y.fiber.matrix, atol=1e-12)
    assert res.membership_residual <= 1e-12


def test_transport_compatibility_small_on_glued_pair():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(5):
        y = ACTION.space.random_point(rng)
        g = SO3.random_element(rng)
        worst = max(worst, transport_compatibility_check(OMEGA_GLUED, LINE, y, g, step=2e-3))
    assert worst <= 1e-7


def test_transport_compatibility_order():
    rng = np.random.default_rng(6)
    y = ACTION.space.random_point(rng)
    g = SO3.random_element(rng)
    errs = [
        transport_compatibility_check(OMEGA_GLUED, LINE, y, g, step=s)
        for s in (0.05, 0.025, 0.0125)
    ]
    assert observed_order(errs) >= 3.5


def test_jet_equivariance():
    rng = np.random.default_rng(7)
    for omega in (OMEGA_CANON, OMEGA_GLUED):
        y = ACTION.space.random_point(rng)
        assert jet_equivariance_check(omega, y, SO3.identity()) <= 1e-10
        g = SO3.random_element(rng)
        assert jet_equivariance_check(omega, y, g) <= 1e-6


def test_horizontal_transform_rule():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(8):
        y = ACTION.space.random_point(rng)
        g = SO3.random_element(rng)
        u = rng.standard_normal(2)
        delta_g = SO3.random_algebra(rng)
        worst = max(worst, horizontal_transform_check(OMEGA_GLUED, y, g, u, delta_g))
    assert worst <= 1e-5
    # nu-horizontal group tangent: the generator term drops
    y = ACTION.space.random_point(rng)
    g = SO3.random_element(rng)
    u = rng.standard_normal(2)
    hor_delta = NU_GLUED.horizontal_delta(y.q, g, u)
    assert horizontal_transform_check(OMEGA_GLUED, y, g, u, hor_delta) <= 1e-5


def _difference_with_laws(omega1, omega2, rng):
    """The difference form, asserting it is tensorial of adjoint type and that
    omega2 plus it validates as a connection."""
    form = connection_difference(omega1, omega2)
    report = form.validate(rng)
    assert report["horizontality"] <= 1e-9
    assert report["ad_equivariance"] <= 1e-7
    rebuilt = GeneralizedPrincipalConnection(
        omega2.action, omega2.nu,
        [(constant_weight(1.0), lambda y: omega2.matrix(y) + form.matrix(y))])
    rebuilt_report = validate_principal_connection(rebuilt, rng, samples=50)
    assert rebuilt_report["complementarity"] <= 1e-8
    assert rebuilt_report["ad_equivariance"] <= 1e-8
    return form


def test_connection_difference_is_tensorial():
    # two connections over the same (trivial) nu: canonical with and without a
    # base-form shift
    base = AlgebraOneForm(
        SO3, lambda x: np.array([[0.3 + 0.5 * x[1], 0.0, 0.2], [0.0, 0.4 * x[0], 0.1]])
    )
    omega_shifted, _ = build_canonical_connection(ACTION, base_form=base)
    rng = np.random.default_rng(9)
    form = _difference_with_laws(omega_shifted, OMEGA_CANON, rng)
    report = form.validate(np.random.default_rng(90), samples=100)
    assert report["horizontality"] <= 1e-9
    assert report["ad_equivariance"] <= 1e-7
    zero_form = connection_difference(OMEGA_CANON, OMEGA_CANON)
    y = ACTION.space.random_point(rng)
    t = Tangent(rng.standard_normal(2), SO3.random_algebra(rng))
    assert zero_form.value(y, t).norm() == 0.0


def test_abelian_difference_recovers_added_base_form():
    action = abelian_action()
    base = AlgebraOneForm.constant(T1, np.array([[0.4], [-0.9]]))
    omega_plus, _ = build_canonical_connection(action, base_form=base)
    omega0, _ = build_canonical_connection(action)
    rng = np.random.default_rng(10)
    form = _difference_with_laws(omega_plus, omega0, rng)
    y = action.space.random_point(rng)
    u = np.array([1.0, 0.0])
    got = form.value(y, Tangent(u, T1.zero()))
    assert np.allclose(got.coords, [0.4], atol=1e-12)


def test_curvature_abelian_matches_analytic_exterior_derivative():
    action = abelian_action()
    # A = x2 dx1: dA = -1 dx1^dx2, curvature on lifted (e1, e2) equals
    # d1 A2 - d2 A1 = -1
    base = AlgebraOneForm(T1, lambda x: np.array([[x[1]], [0.0]]))
    omega, _ = build_canonical_connection(action, base_form=base)
    rng = np.random.default_rng(11)
    y = action.space.random_point(rng)
    out = curvature(omega, y, [1.0, 0.0], [0.0, 1.0])
    assert abs(out.value.coords[0] + 1.0) <= 1e-8
    assert out.gap <= 1e-6


def test_curvature_abelian_closed_form_is_flat():
    action = abelian_action()
    # A = d(f) with f = x1 x2: closed, so the curvature vanishes
    base = AlgebraOneForm(T1, lambda x: np.array([[x[1]], [x[0]]]))
    omega, _ = build_canonical_connection(action, base_form=base)
    rng = np.random.default_rng(12)
    y = action.space.random_point(rng)
    out = curvature(omega, y, [1.0, 0.0], [0.0, 1.0])
    assert np.linalg.norm(out.value.coords) <= 1e-8
    assert out.gap <= 1e-4


def test_curvature_antisymmetry_and_tensoriality():
    rng = np.random.default_rng(13)
    y = ACTION.space.random_point(rng)
    u = rng.standard_normal(2)
    same = curvature(OMEGA_GLUED, y, u, u)
    assert np.linalg.norm(same.value.coords) <= 1e-10
    u1, u2 = rng.standard_normal(2), rng.standard_normal(2)
    a = curvature(OMEGA_GLUED, y, u1, u2).value.coords
    b = curvature(OMEGA_GLUED, y, 2.0 * u1, u2).value.coords
    assert np.linalg.norm(2.0 * a - b) <= 1e-6


def test_curvature_two_paths_agree_and_refine():
    rng = np.random.default_rng(14)
    y = ACTION.space.random_point(rng)
    out = curvature(OMEGA_GLUED, y, [1.0, 0.0], [0.0, 1.0])
    assert out.gap <= 1e-4
    gaps = [
        curvature(OMEGA_GLUED, y, [1.0, 0.0], [0.0, 1.0], h=h).gap
        for h in (2e-2, 1e-2, 5e-3)
    ]
    assert observed_order(gaps) >= 1.8


def test_reduced_curvature_representative_independence():
    # representative independence needs a flat underlying group connection;
    # the base-form family over the trivial nu is the supported regime
    base = AlgebraOneForm(
        SO3,
        lambda x: np.array([[0.3 + 0.8 * x[1], 0.0, 0.5 * x[0]], [0.2, 0.7 * x[0], 0.0]]),
    )
    omega, _ = build_canonical_connection(ACTION, base_form=base)
    rng = np.random.default_rng(15)
    worst = 0.0
    for _ in range(5):
        y = ACTION.space.random_point(rng)
        g = SO3.random_element(rng)
        u1, u2 = rng.standard_normal(2), rng.standard_normal(2)
        worst = max(worst, reduced_curvature_residual(omega, y, g, u1, u2))
    assert worst <= 1e-5


def test_reduced_curvature_defect_is_structural_for_curved_nu():
    # with a curved glued nu the representative dependence is a nu-curvature
    # correction; pin that it is order one and gamma-independent in size
    rng = np.random.default_rng(151)
    y = TotalPoint(np.array([0.05, 0.3]), SO3.random_element(rng))
    g = SO3.random_element(rng)
    res = reduced_curvature_residual(OMEGA_GLUED, y, g, [1.0, 0.0], [0.0, 1.0])
    assert res > 1e-3


def test_equivariant_product_connection():
    rng = np.random.default_rng(16)
    worst = 0.0
    for _ in range(8):
        y = ACTION.space.random_point(rng)
        g = SO3.random_element(rng)
        u = rng.standard_normal(2)
        t_y = Tangent(u, SO3.random_algebra(rng))
        t_g = Tangent(u, SO3.random_algebra(rng))
        worst = max(worst, equivariant_product_connection_check(OMEGA_GLUED, y, g, t_y, t_g))
    assert worst <= 1e-6


def test_necessity_check_passes_and_flags_bad_nu():
    rng = np.random.default_rng(17)
    report = necessity_check(OMEGA_GLUED, rng)
    assert report["omega_ok"] and report["nu_ok"]

    # pairing a non-multiplicative cocycle with a forced form: the report must
    # flag nu (and the form fails equivariance against that nu, consistently)
    bad_nu = LieGroupBundleConnection(
        ACTION.bundle,
        lambda x, u: lambda fibers: np.broadcast_to([0.2, 0.0, 0.0], fibers.shape[:-2] + (3,)),
    )
    forced = GeneralizedPrincipalConnection(ACTION, bad_nu, OMEGA_CANON.pieces)
    bad_report = necessity_check(forced, np.random.default_rng(18))
    assert not bad_report["nu_ok"]
    assert not bad_report["omega_ok"]


PRINCIPAL = build_scenario("principal-so3")
AFFINE = build_scenario("affine-varying")


def _per_tangent_oracles():
    """(scenario, connection, per-tangent oracle value(y, u, delta)) by name."""
    s, glue = PRINCIPAL, PRINCIPAL.config["two_chart"]
    ramp = WeightRamp(*glue["ramp"], axis=glue["ramp_axis"])
    twist = (np.array(glue["sigma_gen"]), Polynomial(glue["sigma_poly"], 2),
             np.array(glue["tau_gen"]), Polynomial(glue["tau_poly"], 2))

    def glued(y, u, d):
        w = ramp(y.q)
        return (w * canonical_form_oracle(SO3, y, u, d)
                + (1.0 - w) * twisted_form_oracle(SO3, *twist, y, u, d))

    return {
        "single": (s, s.omega, lambda y, u, d: canonical_form_oracle(SO3, y, u, d, s.base_form)),
        "canonical": (s, s.omega_canonical, lambda y, u, d: canonical_form_oracle(SO3, y, u, d)),
        "glued": (s, s.omega_glued, glued),
        "affine": (AFFINE, AFFINE.omega,
                   lambda y, u, d: affine_form_oracle(AFFINE.nu_coeff, AFFINE.gamma, y, u, d)),
    }


@pytest.mark.parametrize("name", ["single", "canonical", "glued", "affine"])
def test_form_matrix_matches_per_tangent_oracle(name):
    # x0 in (-0.3, 0.3) covers the glued ramp (-0.2, 0.2), where both pieces are live
    scenario, omega, oracle = _per_tangent_oracles()[name]
    group = scenario.group
    rng = np.random.default_rng(19)
    worst_value = worst_lift = worst_jet = 0.0
    for _ in range(200):
        y = TotalPoint(np.array([rng.uniform(-0.3, 0.3), rng.uniform(-0.9, 0.9)]),
                       group.random_element(rng))
        u, delta = rng.standard_normal(2), group.random_algebra(rng)
        got = omega.value(y, Tangent(u, delta)).coords
        worst_value = max(worst_value, np.max(np.abs(got - oracle(y, u, delta.coords))))
        lift = omega.horizontal_lift(y, u).delta.coords
        want = horizontal_lift_oracle(lambda uu, dd: oracle(y, uu, dd), group.dim, u)
        worst_lift = max(worst_lift, np.max(np.abs(lift - want)))
        jet = omega.horizontal_jet(y).deriv
        for mu, e in enumerate(np.eye(2)):
            worst_jet = max(worst_jet, np.max(np.abs(
                jet[mu] - omega.horizontal_lift(y, e).delta.coords)))
    assert worst_value <= 1e-12
    assert worst_lift <= 1e-12
    assert worst_jet <= 1e-14


def test_zero_fiber_block_makes_lift_and_jet_raise():
    piece = lambda y: np.hstack([np.ones((3, 2)), np.zeros((3, 3))])
    omega = GeneralizedPrincipalConnection(ACTION, NU_CANON, [(constant_weight(1.0), piece)])
    y = ACTION.space.random_point(np.random.default_rng(20))
    with pytest.raises(ConstructionError):
        omega.horizontal_lift(y, [1.0, 0.0])
    with pytest.raises(ConstructionError):
        omega.horizontal_jet(y)


@pytest.mark.parametrize("name", ["single", "canonical", "glued", "affine"])
def test_stacked_form_matches_per_point_oracle(name):
    # one base point, five fibers as one (5, m, m) stack: each row of the
    # stacked matrix and lift must match the per-tangent oracle at that fiber
    scenario, omega, oracle = _per_tangent_oracles()[name]
    group = scenario.group
    rng = np.random.default_rng(21)
    for _ in range(40):
        q = np.array([rng.uniform(-0.3, 0.3), rng.uniform(-0.9, 0.9)])
        fibers = [group.random_element(rng) for _ in range(5)]
        stacked = TotalPoint(q, GroupElement(np.stack([g.matrix for g in fibers]), group))
        u = rng.standard_normal(2)
        mats = omega.matrix(stacked)
        lifts = omega.horizontal_deltas(stacked, u)
        assert mats.shape == (5, group.dim, 2 + group.dim)
        assert lifts.shape == (5, group.dim)
        for g, mat, lift in zip(fibers, mats, lifts):
            y = TotalPoint(q, g)
            delta = group.random_algebra(rng).coords
            want = oracle(y, u, delta)
            assert np.max(np.abs(mat @ np.concatenate([u, delta]) - want)) <= 1e-12
            want_lift = horizontal_lift_oracle(lambda uu, dd: oracle(y, uu, dd), group.dim, u)
            assert np.max(np.abs(lift - want_lift)) <= 1e-12
            assert np.max(np.abs(lift - omega.horizontal_lift(y, u).delta.coords)) <= 1e-15


@pytest.mark.parametrize("scenario, nu_name", [
    (PRINCIPAL, "nu"), (PRINCIPAL, "nu_glued"), (PRINCIPAL, "nu0"), (AFFINE, "nu")])
def test_stacked_lift_map_matches_per_fiber_cocycle(scenario, nu_name):
    nu = getattr(scenario, nu_name)
    group = scenario.group
    rng = np.random.default_rng(22)
    for _ in range(40):
        x = np.array([rng.uniform(-0.3, 0.3), rng.uniform(-0.9, 0.9)])
        u = rng.standard_normal(2)
        fibers = [group.random_element(rng) for _ in range(4)]
        rows = nu.lift_map(x, u)(np.stack([g.matrix for g in fibers]))
        for g, row in zip(fibers, rows):
            assert np.max(np.abs(row - nu.horizontal_delta(x, g, u).coords)) <= 1e-15


def test_stacked_transports_match_separate_runs():
    rng = np.random.default_rng(23)
    s = PRINCIPAL
    curve = s.curves["main"]
    fibers = [s.group.identity()] + [s.group.random_element(rng) for _ in range(3)]
    for nu in (s.nu, s.nu_glued):
        rows = transport_group(nu, curve, fibers, step=0.01)
        for g, row in zip(fibers, rows):
            alone = transport_group(nu, curve, g, step=0.01).element.matrix
            assert np.max(np.abs(row.element.matrix - alone)) <= 1e-14
    points = [TotalPoint(curve.position(curve.a), g) for g in fibers]
    ends = transport_total(s.omega_glued, curve, points, step=0.01)
    for y, (end, result) in zip(points, ends):
        alone, _ = transport_total(s.omega_glued, curve, y, step=0.01)
        assert np.max(np.abs(end.fiber.matrix - alone.fiber.matrix)) <= 1e-14
        assert np.array_equal(end.q, alone.q)
        assert result.membership_residual <= 1e-12
