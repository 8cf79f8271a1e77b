"""Group-bundle connection tests: cocycle laws, transports, algebra connection."""

import numpy as np
import pytest

from liebundles.bundles import LieGroupBundle
from liebundles.calculus import AlgebraOneForm, BaseCurve, ChartDomain, FiberMap, Polynomial
from liebundles.connections import (
    AlgebraConnection,
    LieGroupBundleConnection,
    ad_compatibility_check,
    algebra_transport,
    algebra_transport_fd,
    algebra_transport_linearity_check,
    covariant_derivative_bracket_check,
    horizontal_product_rule_check,
    transport_group,
    transport_multiplicativity_check,
    transport_unit_inverse_check,
    validate_group_connection,
)
from liebundles.gauge import semidirect_jet_descriptor
from liebundles.groups import so3_descriptor, translation_descriptor

from _oracles import constant_coefficient_transport, observed_order, taylor_expm

SO3 = so3_descriptor()
T2 = translation_descriptor(2)
CHART = ChartDomain(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
BUNDLE = LieGroupBundle(CHART, SO3)
BUNDLE_T2 = LieGroupBundle(CHART, T2)

# constant base form A = E3 dx1
A_E3 = AlgebraOneForm(SO3, Polynomial.array({(0, 2): {"0,0": 1.0}}, 2, (2, 3)))
NU_E3 = LieGroupBundleConnection.from_base_form(BUNDLE, A_E3)

# generic polynomial base form
A_GEN = AlgebraOneForm(SO3, Polynomial.array(
    {
        (0, 0): {"0,0": 0.4}, (0, 2): {"1,0": 0.8, "0,0": 0.3},
        (1, 1): {"0,1": 0.6}, (1, 2): {"0,0": -0.2},
    },
    2, (2, 3)))
NU_GEN = LieGroupBundleConnection.from_base_form(BUNDLE, A_GEN)

LINE = BaseCurve.line([-0.6, -0.4], [0.6, 0.5], interval=(0.0, 0.4))


@pytest.mark.parametrize("desc", [SO3, T2, semidirect_jet_descriptor(SO3, 1)],
                         ids=lambda d: d.name)
def test_base_form_lift_equals_the_ad_matrix_product(desc):
    # the lift's one matvec on the Ad hook (or, on the hookless jet
    # descriptor, on Ad_matrix) against Ad_g a - a by a per-row product
    rng = np.random.default_rng(14)
    form = AlgebraOneForm(desc, Polynomial.array(
        {(i, j): {"0,0": rng.uniform(-1.0, 1.0), "1,0": rng.uniform(-1.0, 1.0)}
         for i in range(2) for j in range(desc.dim)}, 2, (2, desc.dim)))
    lift = LieGroupBundleConnection.from_base_form(LieGroupBundle(CHART, desc), form).lift_map
    x, u = rng.uniform(-0.5, 0.5, (12, 2)), rng.uniform(-1.0, 1.0, (12, 2))
    fibers = np.stack([desc.random_element(rng).matrix for _ in range(12)])
    a = form.coords(x, u)
    expected = (desc.Ad_matrix(fibers) @ a[..., None])[..., 0] - a
    assert np.array_equal(lift(x, u)(fibers), expected)
    assert all(np.array_equal(lift(x[i], u[i])(fibers[i]), expected[i]) for i in range(12))


def test_trivial_connection_validates_exactly():
    rng = np.random.default_rng(0)
    report = validate_group_connection(LieGroupBundleConnection.trivial(BUNDLE), rng)
    assert report["cocycle"] == 0.0
    assert report["unit_kernel"] == 0.0
    assert max(report.values()) <= 1e-6


def test_base_form_connection_validates_to_machine_precision():
    rng = np.random.default_rng(1)
    report = validate_group_connection(NU_GEN, rng, samples=100)
    assert report["cocycle"] <= 1e-12
    assert report["unit_kernel"] <= 1e-12
    assert report["jet_multiplicativity"] <= 1e-12


def constant_lift_map(coords):
    """Lift map of the non-multiplicative h(x, g, u) = coords for every g."""
    return lambda x, u: FiberMap(lambda fibers: np.broadcast_to(coords, fibers.shape[:-2] + (3,)))


def test_constant_nonzero_cocycle_rejected():
    rng = np.random.default_rng(2)
    bad = LieGroupBundleConnection(BUNDLE, constant_lift_map([0.1, 0.0, 0.0]))
    report = validate_group_connection(bad, rng, samples=10)
    assert report["unit_kernel"] > 1e-6
    assert report["cocycle"] > 1e-6


def test_transport_trivial_connection_fixes_fiber():
    rng = np.random.default_rng(3)
    nu0 = LieGroupBundleConnection.trivial(BUNDLE)
    g0 = SO3.random_element(rng)
    out = transport_group(nu0, LINE, g0, step=0.01).element
    assert np.allclose(out.matrix, g0.matrix, atol=1e-13)


def test_transport_constant_form_matches_conjugation_oracle():
    # along a straight line with A = E3 dx1 the lift solves g' = -[A(x'), g]
    g0 = SO3.exp(SO3.algebra([0.7, 0.0, 0.0]))
    out = transport_group(NU_E3, LINE, g0, step=1e-3).element
    dx1 = 1.2  # total displacement of x1 over the line
    a_mat = SO3.algebra([0.0, 0.0, dx1]).matrix
    expected = constant_coefficient_transport(a_mat, 1.0, g0.matrix)
    assert np.linalg.norm(out.matrix - expected) <= 1e-9


def test_transport_self_convergence_reference():
    g0 = SO3.exp(SO3.algebra([0.7, 0.0, 0.0]))
    ref = transport_group(NU_GEN, LINE, g0, step=0.4 / 512).element
    errs = [
        np.linalg.norm(transport_group(NU_GEN, LINE, g0, step=0.4 / n).element.matrix - ref.matrix)
        for n in (8, 16, 32)
    ]
    assert observed_order(errs) >= 3.6


def test_transport_multiplicativity_and_unit_inverse():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(5):
        g = SO3.random_element(rng)
        h = SO3.random_element(rng)
        worst = max(worst, transport_multiplicativity_check(NU_GEN, LINE, g, h, step=2e-3))
    assert worst <= 1e-7
    unit_res, inv_res = transport_unit_inverse_check(NU_GEN, LINE, SO3.random_element(rng), step=2e-3)
    assert unit_res <= 1e-9
    assert inv_res <= 1e-8


def test_transport_multiplicativity_abelian_exact():
    rng = np.random.default_rng(5)
    # abelian adjoint is trivial, so the base-form cocycle vanishes: use a
    # linear lift map instead (a linear connection on the fiber)
    k = np.array([[0.3, 0.1], [0.0, -0.2]])

    def lift_map(x, u):
        return FiberMap(lambda fibers, u0: -u0 * (T2.log_coords(fibers) @ k.T), u[..., 0, None])

    nu = LieGroupBundleConnection(BUNDLE_T2, lift_map)
    rng2 = np.random.default_rng(6)
    assert max(validate_group_connection(nu, rng2, samples=50).values()) <= 1e-6
    g = T2.random_element(rng)
    h = T2.random_element(rng)
    assert transport_multiplicativity_check(nu, LINE, g, h, step=5e-3) <= 1e-9


def assert_matches_fd_transport(nu, curve, xi, out, step):
    """The linear flow agrees with the transport of exp(eps xi) differenced at
    eps = 1e-4 / max(1, |xi|), to 1e-5 max(1, |xi|) per curve."""
    scale = np.maximum(1.0, np.linalg.norm(xi.coords, axis=-1))
    fd = algebra_transport_fd(nu, curve, xi, 1e-4 / scale, step)
    assert np.all(np.linalg.norm(fd - out.coords, axis=-1) <= 1e-5 * scale)


def test_algebra_transport_constant_form_closed_form():
    # along the line, xi' = -[A(x'), xi]; for A = E3 dx1 the solution is
    # exp(-dx1 ad_E3) xi
    xi = SO3.algebra([1.0, 0.0, 0.0])
    out = algebra_transport(NU_E3, LINE, xi, step=1e-3)
    ad_e3 = SO3.ad_matrix(np.array([0.0, 0.0, 1.0]))
    expected = taylor_expm(-1.2 * ad_e3) @ xi.coords
    assert np.linalg.norm(out.coords - expected) <= 1e-9
    assert_matches_fd_transport(NU_E3, LINE, xi, out, 1e-3)


def test_algebra_transport_zero_and_trivial():
    nu0 = LieGroupBundleConnection.trivial(BUNDLE)
    xi = SO3.algebra([0.3, -0.2, 0.5])
    out = algebra_transport(nu0, LINE, xi, step=5e-3)
    assert np.allclose(out.coords, xi.coords, atol=1e-12)
    assert_matches_fd_transport(nu0, LINE, xi, out, 5e-3)
    zero = algebra_transport(NU_GEN, LINE, SO3.zero(), step=5e-3)
    assert np.allclose(zero.coords, 0.0, atol=1e-12)
    assert_matches_fd_transport(NU_GEN, LINE, SO3.zero(), zero, 5e-3)


def test_algebra_transport_cross_check_runs():
    xi = SO3.algebra([0.4, 0.1, -0.3])
    out = algebra_transport(NU_GEN, LINE, xi, step=2e-3)
    assert np.all(np.isfinite(out.coords))
    assert_matches_fd_transport(NU_GEN, LINE, xi, out, 2e-3)


def test_algebra_transport_generator_extraction_matches_closed_form():
    rng = np.random.default_rng(7)
    x = CHART.sample(rng)
    u = rng.standard_normal(2)
    closed = AlgebraConnection(NU_GEN).generator(x, u)
    # the same lift map without its base form: the generator is differenced
    lift_only = LieGroupBundleConnection(BUNDLE, NU_GEN.lift_map)
    extracted = AlgebraConnection(lift_only).generator(x, u)
    assert np.allclose(closed, extracted, atol=1e-8)


def test_algebra_connection_generator_is_linear_in_direction():
    rng = np.random.default_rng(80)
    conn = AlgebraConnection(NU_GEN)
    x = CHART.sample(rng)
    u, v = rng.standard_normal(2), rng.standard_normal(2)
    a, b = rng.standard_normal(2)
    combo = conn.generator(x, a * u + b * v)
    split = a * conn.generator(x, u) + b * conn.generator(x, v)
    assert np.max(np.abs(combo - split)) <= 1e-12
    # and linear as an operator on the algebra by construction
    xi, eta = SO3.random_algebra(rng), SO3.random_algebra(rng)
    k = conn.generator(x, u)
    assert np.allclose(k @ (xi.coords + eta.coords), k @ xi.coords + k @ eta.coords)


def test_algebra_transport_linearity():
    rng = np.random.default_rng(8)
    xi, eta = SO3.random_algebra(rng), SO3.random_algebra(rng)
    assert algebra_transport_linearity_check(NU_GEN, LINE, xi, eta, 1.0, 0.0, step=2e-3) <= 1e-9
    assert algebra_transport_linearity_check(NU_GEN, LINE, xi, eta, 0.7, -1.3, step=2e-3) <= 1e-7


def test_ad_compatibility():
    rng = np.random.default_rng(9)
    xi = SO3.random_algebra(rng)
    assert ad_compatibility_check(NU_GEN, LINE, SO3.identity(), xi, step=2e-3) <= 1e-9
    g = SO3.random_element(rng)
    assert ad_compatibility_check(NU_GEN, LINE, g, xi, step=2e-3) <= 1e-7


def test_covariant_derivative_product_rule():
    t0 = 0.2

    def g_path(t):
        return SO3.exp(SO3.algebra([t, 0.0, 0.0]))

    def xi_path(t):
        return SO3.algebra([0.0, 1.0, 0.3 * t])

    res = covariant_derivative_bracket_check(NU_GEN, LINE, g_path, xi_path, t0)
    assert res <= 1e-5


def test_covariant_derivative_product_rule_constant_unit():
    res = covariant_derivative_bracket_check(
        NU_GEN, LINE, lambda t: SO3.identity(), lambda t: SO3.algebra([0.1, 0.2, -0.3]), 0.2
    )
    assert res <= 1e-6


def test_horizontal_product_rule():
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(10):
        x = CHART.sample(rng)
        g, h = SO3.random_element(rng), SO3.random_element(rng)
        u = rng.standard_normal(2)
        delta_h = SO3.random_algebra(rng)
        worst = max(worst, horizontal_product_rule_check(NU_GEN, x, g, h, u, delta_h))
    assert worst <= 1e-5
