"""Gauge-jet tests: semidirect group algebra, jet connection, classification,
curvature map invariance, and the block-matrix descriptor."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liebundles.errors import DescriptorError, UsageError
from liebundles.gauge import (
    ConnectionJet,
    EquivariantJetConnection,
    GaugeJet,
    GaugeSecondJet,
    SecondJetTuple,
    _ad_slots,
    apply_gauge_second_jet,
    classification_equivariance_residual,
    compose_second_jets,
    curvature_invariance_residual,
    curvature_map,
    element_from_gauge_jet,
    extract_classifying_sections,
    jet_connection_multiplicativity_residual,
    jet_connection_value,
    jet_realizing_curvature,
    restricted_action_move,
    semidirect_jet_descriptor,
)
from liebundles.groups import so3_descriptor, translation_descriptor
from liebundles.scenarios import build_scenario
from liebundles.suites import _draw_connection_jets, _draw_jets

from _oracles import _ad_slots_oracle, gauge_jet_from_element, section_product_jet

SO3 = so3_descriptor()
T2 = translation_descriptor(2)
N = 2
JET_DESC = semidirect_jet_descriptor(SO3, N)

floats = st.floats(-1.0, 1.0, allow_nan=False)


def random_jet(rng, desc=SO3):
    return GaugeJet.random(desc, N, rng)


# -- group axioms ----------------------------------------------------------


def test_semidirect_descriptor_is_consistent():
    report = JET_DESC.validate()
    assert max(report.values()) <= 1e-12
    assert JET_DESC.dim == SO3.dim * (1 + N)


def test_block_embedding_is_homomorphism():
    rng = np.random.default_rng(0)
    for _ in range(20):
        k1, k2 = random_jet(rng), random_jet(rng)
        lhs = element_from_gauge_jet(JET_DESC, k1.mul(k2))
        rhs = element_from_gauge_jet(JET_DESC, k1) @ element_from_gauge_jet(JET_DESC, k2)
        assert np.max(np.abs(lhs.matrix - rhs.matrix)) <= 1e-12
        back = gauge_jet_from_element(JET_DESC, lhs)
        assert back.distance(k1.mul(k2)) <= 1e-12


def test_group_axioms_to_1e12():
    rng = np.random.default_rng(1)
    worst_assoc = worst_unit = worst_inv = 0.0
    for _ in range(200):
        k1, k2, k3 = (random_jet(rng) for _ in range(3))
        worst_assoc = max(worst_assoc, k1.mul(k2).mul(k3).distance(k1.mul(k2.mul(k3))))
        e = GaugeJet.identity(SO3, N)
        worst_unit = max(worst_unit, k1.mul(e).distance(k1), e.mul(k1).distance(k1))
        worst_inv = max(worst_inv, k1.mul(k1.inv()).distance(e))
    assert worst_assoc <= 1e-12
    assert worst_unit <= 1e-12
    assert worst_inv <= 1e-12


def test_inverse_closed_form():
    rng = np.random.default_rng(2)
    k = random_jet(rng)
    inv = k.inv()
    expected = -np.tensordot(k.xi, SO3.Ad_matrix(k.g.inverse()).T, axes=(1, 0))
    assert np.allclose(inv.xi, expected, atol=1e-13)


@settings(max_examples=30, deadline=None)
@given(st.tuples(floats, floats, floats), st.tuples(floats, floats, floats))
def test_action_on_first_jets_is_associative(w1, w2):
    rng = np.random.default_rng(abs(hash((w1, w2))) % 2**32)
    k1 = GaugeJet(SO3.exp(SO3.algebra(np.array(w1))), rng.uniform(-1, 1, (N, 3)))
    k2 = GaugeJet(SO3.exp(SO3.algebra(np.array(w2))), rng.uniform(-1, 1, (N, 3)))
    w = random_jet(rng)
    assert k1.mul(k2).mul(w).distance(k1.mul(k2.mul(w))) <= 1e-12


def test_adjoint_formula_matches_block_descriptor_adjoint():
    rng = np.random.default_rng(3)
    for _ in range(20):
        k = random_jet(rng)
        eta = rng.uniform(-1, 1, 3)
        phi = rng.uniform(-1, 1, (N, 3))
        ad_eta, ad_phi = k.adjoint(eta, phi)
        big = element_from_gauge_jet(JET_DESC, k)
        coords = np.concatenate([eta, phi.reshape(-1)])
        via_desc = JET_DESC.Ad(big, JET_DESC.algebra(coords)).coords
        assert np.max(np.abs(np.concatenate([ad_eta, ad_phi.reshape(-1)]) - via_desc)) <= 1e-12


def test_adjoint_formula_matches_fd_conjugation_derivative():
    rng = np.random.default_rng(4)
    k = random_jet(rng)
    eta = rng.uniform(-1, 1, 3)
    phi = rng.uniform(-1, 1, (N, 3))
    ad_eta, ad_phi = k.adjoint(eta, phi)
    big = element_from_gauge_jet(JET_DESC, k)
    coords = JET_DESC.algebra(np.concatenate([eta, phi.reshape(-1)]))
    eps = 1e-6
    plus = big @ JET_DESC.exp(JET_DESC.algebra(eps * coords.coords)) @ big.inverse()
    minus = big @ JET_DESC.exp(JET_DESC.algebra(-eps * coords.coords)) @ big.inverse()
    fd = JET_DESC.matrix_coords((plus.matrix - minus.matrix) / (2 * eps), tol=1e-4)
    assert np.max(np.abs(fd - np.concatenate([ad_eta, ad_phi.reshape(-1)]))) <= 1e-6


def test_abelian_adjoint_is_shear_only():
    rng = np.random.default_rng(5)
    k = random_jet(rng, desc=T2)
    eta = rng.uniform(-1, 1, 2)
    phi = rng.uniform(-1, 1, (N, 2))
    ad_eta, ad_phi = k.adjoint(eta, phi)
    assert np.allclose(ad_eta, eta)
    assert np.allclose(ad_phi, phi)


# -- the jet bundle connection ----------------------------------------------


def test_jet_connection_unit_condition():
    e = GaugeJet.identity(SO3, N)
    val = jet_connection_value(e)
    assert np.allclose(val.eta, 0.0) and np.allclose(val.phi, 0.0)


def test_jet_connection_multiplicativity_exact():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(200):
        worst = max(
            worst,
            jet_connection_multiplicativity_residual(random_jet(rng), random_jet(rng)),
        )
    assert worst <= 1e-12


def test_jet_connection_multiplicativity_abelian_exact():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        worst = max(
            worst,
            jet_connection_multiplicativity_residual(
                random_jet(rng, desc=T2), random_jet(rng, desc=T2)
            ),
        )
    assert worst == 0.0


def test_section_product_jet_matches_fd_of_pointwise_product():
    # chain-rule composition oracle: multiply representative germs and
    # differentiate numerically
    rng = np.random.default_rng(8)
    a = SecondJetTuple(
        SO3.random_element(rng), rng.uniform(-1, 1, (N, 3)), rng.uniform(-1, 1, (N, 3)),
        rng.uniform(-1, 1, (N, N, 3)),
    )
    b = SecondJetTuple(
        SO3.random_element(rng), rng.uniform(-1, 1, (N, 3)), rng.uniform(-1, 1, (N, 3)),
        rng.uniform(-1, 1, (N, N, 3)),
    )

    def germ(t: SecondJetTuple, dx):
        g = SO3.exp(SO3.algebra(dx @ t.eta)) @ t.g
        xi = t.xi + np.tensordot(dx, t.phi, axes=(0, 0))
        return GaugeJet(g, xi)

    closed = section_product_jet(a, b)
    eps = 1e-6
    for mu in range(N):
        dx = np.zeros(N)
        dx[mu] = eps
        plus = germ(a, dx).mul(germ(b, dx))
        minus = germ(a, -dx).mul(germ(b, -dx))
        dgg = (plus.g.matrix - minus.g.matrix) / (2 * eps)
        eta_fd = SO3.matrix_coords(dgg @ np.linalg.inv(closed.g.matrix), tol=1e-4)
        phi_fd = (plus.xi - minus.xi) / (2 * eps)
        assert np.max(np.abs(eta_fd - closed.eta[mu])) <= 1e-6
        assert np.max(np.abs(phi_fd - closed.phi[mu])) <= 1e-6


def test_generic_jet_lift_reproduces_closed_form_on_block_torsor():
    # the action differential of the right-multiplication torsor over the
    # block descriptor, on the n derivative rows of two section jets as one
    # stacked tangent pair, must equal the closed-form product jet, after
    # moving between the flat slots and the group-trivialized derivative
    # encoding K_mu = (eta_mu, phi_mu. - [eta_mu, xi])
    from liebundles.bundles import FiberedAction, Tangent, TotalPoint
    from liebundles.calculus import ChartDomain

    chart = ChartDomain(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    action = FiberedAction(chart, JET_DESC)
    rng = np.random.default_rng(30)

    def flat_to_triv(t: SecondJetTuple):
        rows = []
        for mu in range(N):
            corr = SO3.bracket_coords(t.eta[mu], t.xi)
            rows.append(np.concatenate([t.eta[mu], (t.phi[mu] - corr).reshape(-1)]))
        return np.vstack(rows)

    def random_tuple():
        return SecondJetTuple(SO3.random_element(rng), rng.uniform(-1, 1, (N, 3)),
                              rng.uniform(-1, 1, (N, 3)), rng.uniform(-1, 1, (N, N, 3)))

    for _ in range(5):
        a, b = random_tuple(), random_tuple()
        x = chart.sample(rng)
        y = TotalPoint(x, element_from_gauge_jet(JET_DESC, GaugeJet(a.g, a.xi)))
        g = element_from_gauge_jet(JET_DESC, GaugeJet(b.g, b.xi))
        eye = np.eye(N)
        pushed = action.differential(y, g, Tangent(eye, JET_DESC.algebra(flat_to_triv(a))),
                                     Tangent(eye, JET_DESC.algebra(flat_to_triv(b))))
        expected = section_product_jet(a, b)
        exp_val = element_from_gauge_jet(JET_DESC, GaugeJet(expected.g, expected.xi))
        assert np.max(np.abs(action.act(y, g).fiber.matrix - exp_val.matrix)) <= 1e-12
        assert np.max(np.abs(pushed.delta.coords - flat_to_triv(expected))) <= 1e-12


def test_section_product_jet_differs_from_semidirect_composition():
    # the chain-rule composite of two horizontal jets carries a bracket term;
    # the semidirect composition (the law the connection is multiplicative in)
    # does not
    rng = np.random.default_rng(9)
    k1, k2 = random_jet(rng), random_jet(rng)
    plain = compose_second_jets(jet_connection_value(k1), jet_connection_value(k2))
    chain = section_product_jet(jet_connection_value(k1), jet_connection_value(k2))
    assert plain.distance(chain) > 1e-3
    bracket = SO3.bracket_coords(
        k1.xi[:, None, :],
        np.tensordot(k2.xi, SO3.Ad_matrix(k1.g).T, axes=(1, 0))[None, :, :],
    )
    assert np.allclose(chain.phi - plain.phi, bracket, atol=1e-12)


# -- classification ----------------------------------------------------------


def test_classification_equivariance_exact_for_zero_sections():
    rng = np.random.default_rng(10)
    omega_hat = EquivariantJetConnection(SO3, N)
    worst = 0.0
    for _ in range(100):
        worst = max(
            worst, classification_equivariance_residual(omega_hat, random_jet(rng), random_jet(rng))
        )
    assert worst <= 1e-12


def test_classification_equivariance_generic_sections():
    rng = np.random.default_rng(11)
    f = lambda x: np.array([[0.3, 0.0, 0.5], [0.1, -0.2, 0.0]])
    g2 = lambda x: 0.25 * np.ones((N, N, 3))
    omega_hat = EquivariantJetConnection(SO3, N, f=f, g2=g2)
    worst = 0.0
    for _ in range(100):
        worst = max(
            worst, classification_equivariance_residual(omega_hat, random_jet(rng), random_jet(rng))
        )
    assert worst <= 1e-10


def test_classification_extraction_reconstructs():
    rng = np.random.default_rng(12)
    f_arr = rng.uniform(-1, 1, (N, 3))
    g_arr = rng.uniform(-1, 1, (N, N, 3))
    omega_hat = EquivariantJetConnection(SO3, N, f=lambda x: f_arr, g2=lambda x: g_arr)
    f_got, g_got = extract_classifying_sections(omega_hat, np.zeros(N))
    assert np.max(np.abs(f_got - f_arr)) <= 1e-12
    assert np.max(np.abs(g_got - g_arr)) <= 1e-12
    rebuilt = EquivariantJetConnection(SO3, N, f=lambda x: f_got, g2=lambda x: g_got)
    w = random_jet(rng)
    assert rebuilt(np.zeros(N), w).distance(omega_hat(np.zeros(N), w)) <= 1e-10


def test_classification_negative_control_missing_ad():
    rng = np.random.default_rng(13)
    f = lambda x: np.array([[0.7, 0.0, 0.0], [0.0, 0.4, 0.0]])
    broken = EquivariantJetConnection(SO3, N, f=f, drop_ad_twist=True)
    worst = 0.0
    for _ in range(20):
        worst = max(
            worst, classification_equivariance_residual(broken, random_jet(rng), random_jet(rng))
        )
    assert worst > 1e-3


# -- curvature quotient map ---------------------------------------------------


def test_curvature_map_zero_jet():
    jet = ConnectionJet(SO3, np.zeros((N, 3)), np.zeros((N, N, 3)))
    assert np.allclose(curvature_map(jet), 0.0)


def test_curvature_map_kills_symmetric_derivative():
    rng = np.random.default_rng(14)
    raw = rng.uniform(-1, 1, (N, N, 3))
    sym = 0.5 * (raw + np.swapaxes(raw, 0, 1))
    jet = ConnectionJet(SO3, np.zeros((N, 3)), sym)
    assert np.allclose(curvature_map(jet), 0.0, atol=1e-14)


def test_curvature_map_abelian_equals_analytic_exterior_derivative():
    # A(x) analytic with values in the abelian algebra: F must equal dA
    rng = np.random.default_rng(15)
    x0 = np.array([0.2, -0.3])

    def a_field(x):
        return np.array([[x[1] ** 2, 0.3 * x[0]], [np.sin(x[0]), x[0] * x[1]]])

    eps = 1e-6
    da = np.zeros((N, N, 2))
    for mu in range(N):
        dx = np.zeros(N)
        dx[mu] = eps
        da[mu] = (a_field(x0 + dx) - a_field(x0 - dx)) / (2 * eps)
    jet = ConnectionJet(T2, a_field(x0), da)
    f = curvature_map(jet)
    analytic = np.zeros((N, N, 2))
    # dA(e1, e2) = d1 A2 - d2 A1 computed by hand for the field above:
    # A1 = (x2^2, 0.3 x1), A2 = (sin x1, x1 x2)
    d1a2 = np.array([np.cos(x0[0]), x0[1]])
    d2a1 = np.array([2 * x0[1], 0.0])
    analytic[0, 1] = d1a2 - d2a1
    analytic[1, 0] = -analytic[0, 1]
    assert np.max(np.abs(f - analytic)) <= 1e-8


def test_curvature_map_pure_gauge_is_flat():
    # A = (d s) s^{-1} for an analytic section s has zero curvature
    rng = np.random.default_rng(16)
    w = rng.uniform(-0.8, 0.8, (N, 3))
    q = rng.uniform(-0.4, 0.4, (N, N, 3))
    q = 0.5 * (q + np.swapaxes(q, 0, 1))
    x0 = np.zeros(N)

    def s_field(x):
        dx = x - x0
        coords = dx @ w + 0.5 * np.einsum("m,mnk,n->k", dx, q, dx)
        return SO3.exp(SO3.algebra(coords))

    eps = 1e-5

    def a_of(x):
        rows = []
        for mu in range(N):
            d = np.zeros(N)
            d[mu] = eps
            dmat = (s_field(x + d).matrix - s_field(x - d).matrix) / (2 * eps)
            rows.append(SO3.matrix_coords(dmat @ np.linalg.inv(s_field(x).matrix), tol=1e-3))
        return np.vstack(rows)

    da = np.zeros((N, N, 3))
    for mu in range(N):
        d = np.zeros(N)
        d[mu] = eps
        da[mu] = (a_of(x0 + d) - a_of(x0 - d)) / (2 * eps)
    jet = ConnectionJet(SO3, a_of(x0), da)
    assert np.max(np.abs(curvature_map(jet))) <= 1e-5


def test_gauge_second_jet_requires_symmetric_sigma():
    bad = np.zeros((N, N, 3))
    bad[0, 1, 0] = 1.0
    with pytest.raises(UsageError):
        GaugeSecondJet(SO3, np.zeros((N, 3)), bad)


def test_second_jet_action_matches_fd_derivation():
    # rederive the frozen coordinate formula by differentiating the first-jet
    # action along analytic representatives
    rng = np.random.default_rng(17)
    jet = ConnectionJet.random(SO3, N, rng)
    gauge = GaugeSecondJet.random(SO3, N, rng)
    x0 = np.zeros(N)

    def gamma(x):
        dx = x - x0
        coords = dx @ gauge.xi + 0.5 * np.einsum("m,mnk,n->k", dx, gauge.sigma, dx)
        return SO3.exp(SO3.algebra(coords))

    def a_field(x):
        return jet.A + np.tensordot(x - x0, jet.DA, axes=(0, 0))

    def transformed_a(x):
        g = gamma(x)
        ad = SO3.Ad_matrix(g)
        eps = 1e-6
        rows = []
        for mu in range(N):
            d = np.zeros(N)
            d[mu] = eps
            dmat = (gamma(x + d).matrix - gamma(x - d).matrix) / (2 * eps)
            rows.append(SO3.matrix_coords(dmat @ np.linalg.inv(g.matrix), tol=1e-3))
        rtd = np.vstack(rows)
        return np.tensordot(a_field(x), ad.T, axes=(1, 0)) + rtd

    closed = apply_gauge_second_jet(jet, gauge)
    assert np.max(np.abs(transformed_a(x0) - closed.A)) <= 1e-9
    eps = 1e-4
    da_fd = np.zeros((N, N, 3))
    for mu in range(N):
        d = np.zeros(N)
        d[mu] = eps
        da_fd[mu] = (transformed_a(x0 + d) - transformed_a(x0 - d)) / (2 * eps)
    assert np.max(np.abs(da_fd - closed.DA)) <= 1e-5


def test_curvature_invariance_trivial_cases():
    rng = np.random.default_rng(18)
    jet = ConnectionJet.random(SO3, N, rng)
    zero = GaugeSecondJet(SO3, np.zeros((N, 3)), np.zeros((N, N, 3)))
    assert curvature_invariance_residual(jet, zero) == 0.0
    sigma_only = GaugeSecondJet.random(SO3, N, rng)
    sigma_only = GaugeSecondJet(SO3, np.zeros((N, 3)), sigma_only.sigma)
    assert curvature_invariance_residual(jet, sigma_only) <= 1e-14


def test_curvature_invariance_generic_exact():
    rng = np.random.default_rng(19)
    worst = 0.0
    for _ in range(200):
        jet = ConnectionJet.random(SO3, N, rng)
        gauge = GaugeSecondJet.random(SO3, N, rng)
        worst = max(worst, curvature_invariance_residual(jet, gauge))
    assert worst <= 1e-12


def test_restricted_action_freeness():
    rng = np.random.default_rng(20)
    jet = ConnectionJet.random(SO3, N, rng)
    for _ in range(50):
        gauge = GaugeSecondJet.random(SO3, N, rng)
        assert restricted_action_move(jet, gauge) > 1e-12
    zero = GaugeSecondJet(SO3, np.zeros((N, 3)), np.zeros((N, N, 3)))
    assert restricted_action_move(jet, zero) == 0.0


def test_pointwise_surjectivity_onto_curvature_targets():
    rng = np.random.default_rng(21)
    raw = rng.uniform(-1, 1, (N, N, 3))
    target = raw - np.swapaxes(raw, 0, 1)
    jet = jet_realizing_curvature(SO3, target)
    assert np.max(np.abs(curvature_map(jet) - target)) <= 1e-13


# -- stacks of jets ------------------------------------------------------------


def _stack(desc, jets):
    """One stacked GaugeJet holding the lone jets as rows."""
    g = desc.element(np.stack([k.g.matrix for k in jets]), check=False)
    return GaugeJet(g, np.stack([k.xi for k in jets]))


def _row(k, r):
    return GaugeJet(k.g.descriptor.element(k.g.matrix[r], check=False), k.xi[r])


def _second_row(t, r):
    return SecondJetTuple(t.g.descriptor.element(t.g.matrix[r], check=False), t.xi[r],
                          t.eta[r], t.phi[r])


@pytest.mark.parametrize("desc", [SO3, T2], ids=["so3", "translation2"])
def test_stacked_jet_operations_equal_lone_rows(desc):
    rng = np.random.default_rng(40)
    lone = [[random_jet(rng, desc) for _ in range(5)] for _ in range(3)]
    k1, k2, k3 = (_stack(desc, row) for row in lone)
    eta, phi = rng.uniform(-1, 1, (5, desc.dim)), rng.uniform(-1, 1, (5, N, desc.dim))
    omega_hat = EquivariantJetConnection(desc, N, f=lambda x: np.full((N, desc.dim), 0.3),
                                         g2=lambda x: np.full((N, N, desc.dim), -0.2))
    e = GaugeJet.identity(desc, N)
    product, inverse = k1.mul(k2), k1.inv()
    ad_eta, ad_phi = k1.adjoint(eta, phi)
    composed = compose_second_jets(jet_connection_value(k1), omega_hat(np.zeros(N), k2))
    stacked = {
        "assoc": product.mul(k3).distance(k1.mul(k2.mul(k3))),
        "unit": k1.mul(e).distance(k1),
        "mult": jet_connection_multiplicativity_residual(k1, k2),
        "equivariance": classification_equivariance_residual(omega_hat, k1, k2),
    }
    for r in range(5):
        a, b, c = (row[r] for row in lone)
        assert np.array_equal(product.g.matrix[r], a.mul(b).g.matrix)
        assert np.array_equal(product.xi[r], a.mul(b).xi)
        assert np.array_equal(inverse.xi[r], a.inv().xi)
        lone_eta, lone_phi = a.adjoint(eta[r], phi[r])
        assert np.array_equal(ad_eta[r], lone_eta) and np.array_equal(ad_phi[r], lone_phi)
        lone_composed = compose_second_jets(jet_connection_value(a), omega_hat(np.zeros(N), b))
        assert _second_row(composed, r).distance(lone_composed) == 0.0
        assert stacked["assoc"][r] == a.mul(b).mul(c).distance(a.mul(b.mul(c)))
        assert stacked["unit"][r] == a.mul(e).distance(a)
        assert stacked["mult"][r] == jet_connection_multiplicativity_residual(a, b)
        assert stacked["equivariance"][r] == classification_equivariance_residual(omega_hat, a, b)
    jet_desc = semidirect_jet_descriptor(desc, N)
    big = element_from_gauge_jet(jet_desc, k1).matrix
    assert all(np.array_equal(big[r], element_from_gauge_jet(jet_desc, lone[0][r]).matrix)
               for r in range(5))


@pytest.mark.parametrize("desc", [SO3, T2], ids=["so3", "translation2"])
def test_stacked_connection_jets_equal_lone_rows(desc):
    rng = np.random.default_rng(41)
    pairs = [(ConnectionJet.random(desc, N, rng), GaugeSecondJet.random(desc, N, rng))
             for _ in range(6)]
    jet = ConnectionJet(desc, np.stack([j.A for j, _ in pairs]), np.stack([j.DA for j, _ in pairs]))
    gauge = GaugeSecondJet(desc, np.stack([q.xi for _, q in pairs]),
                           np.stack([q.sigma for _, q in pairs]))
    curvature, moved = curvature_map(jet), apply_gauge_second_jet(jet, gauge)
    invariance, move = curvature_invariance_residual(jet, gauge), restricted_action_move(jet, gauge)
    target = curvature - 2.0
    target = target - np.swapaxes(target, -3, -2)
    realized = curvature_map(jet_realizing_curvature(desc, target))
    for r, (j, q) in enumerate(pairs):
        assert np.array_equal(curvature[r], curvature_map(j))
        assert np.array_equal(moved.DA[r], apply_gauge_second_jet(j, q).DA)
        assert invariance[r] == curvature_invariance_residual(j, q)
        assert move[r] == restricted_action_move(j, q)
        assert np.array_equal(realized[r], curvature_map(jet_realizing_curvature(desc, target[r])))


@pytest.mark.parametrize("preset", ["gauge-jet-so3", "gauge-jet-abelian"])
def test_jet_random_draws_one_row_of_the_suite_sampler(preset):
    """Each `random` is one row of the stacks the gauge checks draw, and
    takes the values and the RNG state of the `rng.uniform` calls it
    replaced, so the `curvature` command's gauge sample is unchanged."""
    s = build_scenario(preset)
    desc, n = s.group, s.n
    lone, stacked, uniform = (np.random.default_rng(12) for _ in range(3))
    for _ in range(3):
        k = GaugeJet.random(desc, n, lone)
        (row,) = _draw_jets(s, stacked, 1, 1)
        g, xi = desc.random_element(uniform), uniform.uniform(-1.0, 1.0, (n, desc.dim))
        assert np.array_equal(k.g.matrix, row.g.matrix[0]) and np.array_equal(k.g.matrix, g.matrix)
        assert np.array_equal(k.xi, row.xi[0]) and np.array_equal(k.xi, xi)
        j, q = ConnectionJet.random(desc, n, lone), GaugeSecondJet.random(desc, n, lone)
        jets, gauges = _draw_connection_jets(s, stacked, 1)
        a, da, raw, xi = (uniform.uniform(-1.0, 1.0, shape) for shape in
                          [(n, desc.dim), (n, n, desc.dim), (n, n, desc.dim), (n, desc.dim)])
        sigma = 0.5 * (raw + np.swapaxes(raw, 0, 1))
        for got, row, old in [(j.A, jets.A, a), (j.DA, jets.DA, da), (q.xi, gauges.xi, xi),
                              (q.sigma, gauges.sigma, sigma)]:
            assert np.array_equal(got, row[0]) and np.array_equal(got, old)
    assert lone.bit_generator.state == stacked.bit_generator.state == uniform.bit_generator.state


def test_lone_distance_is_the_old_norm_sum_and_a_stack_gives_one_per_row():
    rng = np.random.default_rng(42)
    a, b = random_jet(rng), random_jet(rng)
    old = float(np.linalg.norm(a.g.matrix - b.g.matrix) + np.linalg.norm(a.xi - b.xi))
    assert type(a.distance(b)) is float and a.distance(b) == old

    def second(k):
        return SecondJetTuple(k.g, k.xi, rng.uniform(-1, 1, (N, 3)), rng.uniform(-1, 1, (N, N, 3)))

    s, t = second(a), second(b)
    old = float(np.linalg.norm(s.g.matrix - t.g.matrix) + np.linalg.norm(s.xi - t.xi)
                + np.linalg.norm(s.eta - t.eta) + np.linalg.norm(s.phi - t.phi))
    assert type(s.distance(t)) is float and s.distance(t) == old

    jets = [[random_jet(rng) for _ in range(4)] for _ in range(2)]
    left, right = _stack(SO3, jets[0]), _stack(SO3, jets[1])
    rows = left.distance(right)
    assert rows.shape == (4,)
    assert all(rows[r] == jets[0][r].distance(jets[1][r]) for r in range(4))
    seconds = [[second(k) for k in row] for row in jets]
    stacked = [SecondJetTuple(_stack(SO3, row).g, *(np.stack([getattr(t, f) for t in seq])
                                                     for f in ("xi", "eta", "phi")))
               for row, seq in zip(jets, seconds)]
    rows = stacked[0].distance(stacked[1])
    assert rows.shape == (4,)
    assert all(rows[r] == seconds[0][r].distance(seconds[1][r]) for r in range(4))
    assert all(_row(left, r).distance(_row(right, r)) == left.distance(right)[r] for r in range(4))


def test_stacked_guards_name_the_offending_rows():
    rng = np.random.default_rng(43)
    raw = rng.uniform(-1, 1, (4, N, N, 3))
    sigma = 0.5 * (raw + np.swapaxes(raw, 1, 2))
    xi = rng.uniform(-1, 1, (4, N, 3))
    GaugeSecondJet(SO3, xi, sigma)
    asymmetric = sigma.copy()
    asymmetric[2, 0, 1, 0] += 1.0
    with pytest.raises(UsageError, match=r"symmetric .*in rows \[2\]"):
        GaugeSecondJet(SO3, xi, asymmetric)
    for field in ("xi", "sigma"):
        bad = {"xi": xi.copy(), "sigma": sigma.copy()}
        bad[field][1, ...] = np.nan
        with pytest.raises(UsageError, match=r"finite in rows \[1\]"):
            GaugeSecondJet(SO3, bad["xi"], bad["sigma"])
    lone_nan = np.zeros((N, N, 3))
    lone_nan[0, 0, 0] = np.nan
    with pytest.raises(UsageError, match="finite$"):
        GaugeSecondJet(SO3, np.zeros((N, 3)), lone_nan)
    da = rng.uniform(-1, 1, (4, N, N, 3))
    da[3, 1, 0, 2] = np.inf
    with pytest.raises(UsageError, match=r"finite in rows \[3\]"):
        ConnectionJet(SO3, xi, da)
    with pytest.raises(UsageError, match=r"finite in rows \[0, 2\]"):
        GaugeJet(SO3.element(np.stack([np.eye(3)] * 4)),
                 np.where(np.arange(4)[:, None, None] % 2 == 0, np.nan, xi))
    with pytest.raises(UsageError, match="finite$"):
        GaugeJet(SO3.identity(), np.full((N, 3), np.nan))


@pytest.mark.parametrize("base", [SO3, T2], ids=["so3", "translation2"])
def test_semidirect_descriptor_kernels_act_row_by_row(base):
    desc = semidirect_jet_descriptor(base, N)
    coords = np.random.default_rng(5).uniform(-1.0, 1.0, (6, desc.dim))
    stacked = desc.exp(desc.algebra(coords)).matrix
    lone = [desc.exp(desc.algebra(c)).matrix for c in coords]
    assert stacked.shape == (6, desc.matrix_dim, desc.matrix_dim)
    assert all(np.array_equal(row, m) for row, m in zip(stacked, lone))
    residuals = desc.membership_residual(stacked)
    assert list(residuals) == [desc.membership_residual(m) for m in lone]
    assert np.array_equal(desc.retract(stacked), np.stack([desc.retract(m) for m in lone]))
    desc.element(stacked)  # every row lies on the group
    off = stacked.copy()
    off[3, 0, -1] += 1e-3  # couples the base block to the translation column
    with pytest.raises(DescriptorError, match=r"in rows \[3\]"):
        desc.element(off)


@pytest.mark.parametrize("base, n", [(SO3, 2), (SO3, 3), (T2, 2)],
                         ids=["so3-n2", "so3-n3", "translation2-n2"])
def test_jet_exp_closed_form_matches_expm(base, n):
    """exp(a, eta) = (exp a, (I_n (x) phi(ad_a)) eta) agrees with scipy's expm
    of the block matrix, is exactly I at zero, gives each stacked row its lone
    value, and log (scipy's logm, as the jet descriptor has no log hook)
    still inverts it."""
    import scipy.linalg

    desc = semidirect_jet_descriptor(base, n)
    coords = np.random.default_rng(11).uniform(-1.0, 1.0, (200, desc.dim))
    stacked = desc.exp_coords(coords)
    assert np.max(np.abs(stacked - scipy.linalg.expm(desc.algebra_matrix(coords)))) <= 1e-13
    assert all(np.array_equal(row, desc.exp_coords(c)) for row, c in zip(stacked, coords))
    assert np.array_equal(desc.exp_coords(np.zeros(desc.dim)), np.eye(desc.matrix_dim))
    assert desc.log_hook is None
    xi = desc.algebra(coords[:20])
    assert np.max(np.abs(desc.log(desc.exp(xi)).coords - xi.coords)) <= 1e-12


@pytest.mark.parametrize("slots", [1, 2])
def test_an_abelian_ad_twist_is_its_array_broadcast_to_the_product(slots):
    """On an abelian fiber Ad_g is the identity: the twist multiplies by
    nothing and gives the product's shape and values, for a lone g and a
    stacked g on a lone arr and a stacked one; a -0.0 keeps its sign."""
    rng = np.random.default_rng(19)
    stacked_g = T2.exp(T2.algebra(rng.uniform(-2.0, 2.0, (7, T2.dim))))
    lone_g = T2.element(stacked_g.matrix[3], check=False)
    arr = rng.uniform(-1.0, 1.0, (7,) + (N,) * slots + (T2.dim,))
    arr[0, ..., 0] = -0.0
    for g in (lone_g, stacked_g):
        ad_t = np.swapaxes(T2.Ad_matrix(g), -1, -2)
        for a in (arr, arr[0]):
            product = a @ ad_t.reshape(ad_t.shape[:-2] + (1,) * (slots - 1) + ad_t.shape[-2:])
            got = _ad_slots(T2, g, a, slots)
            assert got.shape == product.shape
            assert np.array_equal(got, product)
            assert np.array_equal(np.signbit(got), np.signbit(np.broadcast_to(a, got.shape)))


@pytest.mark.parametrize("desc", [SO3, T2], ids=["so3", "translation2"])
@pytest.mark.parametrize("slots", [1, 2])
def test_ad_twist_rows_equal_the_lone_oracle(desc, slots):
    """The contiguous copy of Ad_g^T keeps the bits: each row of a stacked g
    twists its own row of arr, or all of a lone arr, as the lone oracle does,
    and so does a lone g."""
    rng = np.random.default_rng(17)
    g = desc.exp(desc.algebra(rng.uniform(-2.0, 2.0, (60, desc.dim))))
    arr = rng.uniform(-1.0, 1.0, (60,) + (N,) * slots + (desc.dim,))
    lone_arr = arr[0]
    stacked, shared = _ad_slots(desc, g, arr, slots), _ad_slots(desc, g, lone_arr, slots)
    for r in range(60):
        g_r = desc.element(g.matrix[r], check=False)
        assert np.array_equal(stacked[r], _ad_slots_oracle(desc, g_r, arr[r])), r
        lone = _ad_slots_oracle(desc, g_r, lone_arr)
        assert np.array_equal(shared[r], lone) and np.array_equal(
            _ad_slots(desc, g_r, lone_arr, slots), lone), r
