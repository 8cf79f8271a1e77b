"""Fibered action tests: axioms, generators, jets, adjoint classes."""

import numpy as np
import pytest

from liebundles.bundles import (
    AdjointBundlePoint,
    FiberedAction,
    LieGroupBundle,
    SectionJet,
    Tangent,
    TotalSpace,
    adjoint_class_equal,
    adjoint_class_residual,
    equivariance_of_generators,
    jet_lift_action,
    paired_generator_residual,
    vertical_isomorphism_check,
)
from liebundles.calculus import ChartDomain
from liebundles.errors import ValidationError
from liebundles.groups import so3_descriptor, translation_descriptor

SO3 = so3_descriptor()
T2 = translation_descriptor(2)
CHART = ChartDomain(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))


def make_action(desc):
    space = TotalSpace(CHART, CHART, desc)
    bundle = LieGroupBundle(CHART, desc)
    return FiberedAction(space, bundle)


SO3_ACTION = make_action(SO3)
T2_ACTION = make_action(T2)


class FrozenAction(FiberedAction):
    """Degenerate action that fixes every point: not free, zero generators."""

    def act(self, y, g):
        return y

    def generator(self, y, xi):
        return Tangent(np.zeros(self.space.quotient.dim), self.space.fiber.zero())


def test_bundle_fiberwise_group_axioms():
    rng = np.random.default_rng(0)
    assert LieGroupBundle(CHART, SO3).validate_fiberwise_group(rng) <= 1e-10


def test_action_axioms_on_samples():
    rng = np.random.default_rng(1)
    assert SO3_ACTION.validate(rng, samples=1000) <= 1e-10
    assert T2_ACTION.validate(rng, samples=1000) <= 1e-10


def test_degenerate_action_detected():
    frozen = FrozenAction(TotalSpace(CHART, CHART, SO3), LieGroupBundle(CHART, SO3))
    rng = np.random.default_rng(2)
    with pytest.raises(ValidationError):
        frozen.validate(rng, samples=20)


def test_generator_of_zero_vanishes():
    rng = np.random.default_rng(3)
    y = SO3_ACTION.space.random_point(rng)
    t = SO3_ACTION.generator(y, SO3.zero())
    assert t.norm() == 0.0


def test_generator_torsor_closed_form_matches_fd():
    rng = np.random.default_rng(4)
    y = SO3_ACTION.space.random_point(rng)
    xi = SO3.random_algebra(rng)
    closed = SO3_ACTION.generator(y, xi)
    eps = 1e-6
    plus = SO3_ACTION.act(y, SO3.exp(SO3.algebra(eps * xi.coords)))
    minus = SO3_ACTION.act(y, SO3.exp(SO3.algebra(-eps * xi.coords)))
    dmat = (plus.fiber.matrix - minus.fiber.matrix) / (2 * eps)
    fd = SO3.matrix_coords(dmat @ np.linalg.inv(y.fiber.matrix), tol=1e-4)
    assert np.allclose(closed.delta.coords, fd, atol=1e-8)
    assert np.linalg.norm(closed.u) == 0.0  # vertical for both projections


def test_generator_affine_fiber_is_constant_vector():
    rng = np.random.default_rng(5)
    y = T2_ACTION.space.random_point(rng)
    v = T2.algebra([0.3, -0.7])
    t = T2_ACTION.generator(y, v)
    assert np.allclose(t.delta.coords, v.coords)


def test_vertical_isomorphism_full_rank_on_torsor():
    rng = np.random.default_rng(6)
    y = SO3_ACTION.space.random_point(rng)
    report = vertical_isomorphism_check(SO3_ACTION, y)
    assert report["rank"] == 3
    # Ad_h is orthogonal for so3, so the generator matrix has unit singular values
    assert report["min_singular_value"] == pytest.approx(1.0, abs=1e-10)


def test_vertical_isomorphism_identity_on_affine():
    rng = np.random.default_rng(7)
    y = T2_ACTION.space.random_point(rng)
    report = vertical_isomorphism_check(T2_ACTION, y)
    assert report["min_singular_value"] == pytest.approx(1.0, abs=1e-12)


def test_vertical_isomorphism_degenerate_raises():
    frozen = FrozenAction(TotalSpace(CHART, CHART, SO3), LieGroupBundle(CHART, SO3))
    rng = np.random.default_rng(8)
    y = frozen.space.random_point(rng)
    with pytest.raises(ValidationError):
        vertical_isomorphism_check(frozen, y)


def test_generator_equivariance_identity_and_abelian():
    rng = np.random.default_rng(9)
    y = SO3_ACTION.space.random_point(rng)
    xi = SO3.random_algebra(rng)
    assert equivariance_of_generators(SO3_ACTION, y, SO3.identity(), xi) <= 1e-9
    yv = T2_ACTION.space.random_point(rng)
    g = T2.random_element(rng)
    assert equivariance_of_generators(T2_ACTION, yv, g, T2.algebra([1.0, 2.0])) <= 1e-9


def test_generator_equivariance_so3_random():
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(10):
        y = SO3_ACTION.space.random_point(rng)
        g = SO3.random_element(rng)
        xi = SO3.random_algebra(rng)
        worst = max(worst, equivariance_of_generators(SO3_ACTION, y, g, xi))
    assert worst <= 1e-7


@pytest.mark.parametrize("desc", [SO3, T2], ids=["so3", "translation"])
def test_generator_equivariance_is_paired_residual_with_zero_eta(desc):
    """exp(0) is the identity exactly, so a zero group velocity leaves every
    bit of the paired residual equal to the two-curve form of the identity."""
    action = make_action(desc)
    zero = desc.algebra(np.zeros(desc.dim))
    rng = np.random.default_rng(13)
    eps = 1e-5
    for _ in range(10):
        y = action.space.random_point(rng)
        g = desc.random_element(rng)
        xi = desc.random_algebra(rng)
        got = equivariance_of_generators(action, y, g, xi)
        assert got == paired_generator_residual(action, y, g, xi, zero)
        # the two curves written out: y.exp(s xi).g against y.g.exp(s Ad_{g^-1} xi)
        yg, ad_xi = action.act(y, g), desc.Ad(g.inverse(), xi)
        p, m = (action.act(action.act(y, desc.exp(desc.algebra(s * xi.coords))), g)
                for s in (eps, -eps))
        pr, mr = (action.act(yg, desc.exp(desc.algebra(s * ad_xi.coords))) for s in (eps, -eps))
        fiber = (p.fiber.matrix - m.fiber.matrix) / (2 * eps) - (
            pr.fiber.matrix - mr.fiber.matrix) / (2 * eps)
        base = (p.q - m.q) / (2 * eps) - (pr.q - mr.q) / (2 * eps)
        assert got == float(np.linalg.norm(fiber) + np.linalg.norm(base))


def test_paired_generator_residual_small():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(10):
        y = SO3_ACTION.space.random_point(rng)
        g = SO3.random_element(rng)
        xi = SO3.random_algebra(rng)
        eta = SO3.random_algebra(rng)
        worst = max(worst, paired_generator_residual(SO3_ACTION, y, g, xi, eta))
    assert worst <= 1e-6


def test_generators_vertical_components_small():
    rng = np.random.default_rng(12)
    for _ in range(20):
        y = SO3_ACTION.space.random_point(rng)
        xi = SO3.random_algebra(rng)
        assert np.linalg.norm(SO3_ACTION.generator(y, xi).u) <= 1e-9


def test_jet_lift_unit_section_keeps_y_jet():
    rng = np.random.default_rng(13)
    x = CHART.sample(rng)
    y_jet = SectionJet(x, SO3.random_element(rng), rng.standard_normal((2, 3)))
    unit = SectionJet(x, SO3.identity(), np.zeros((2, 3)))
    out = jet_lift_action(SO3_ACTION, y_jet, unit)
    assert np.allclose(out.value.matrix, y_jet.value.matrix)
    assert np.allclose(out.deriv, y_jet.deriv, atol=1e-12)


def test_jet_lift_chain_rule_matches_fd_oracle():
    rng = np.random.default_rng(14)
    x = CHART.sample(rng)
    y_jet = SectionJet(x, SO3.random_element(rng), rng.standard_normal((2, 3)))
    g_jet = SectionJet(x, SO3.random_element(rng), rng.standard_normal((2, 3)))
    closed = jet_lift_action(SO3_ACTION, y_jet, g_jet, fd=False)
    fd = jet_lift_action(SO3_ACTION, y_jet, g_jet, fd=True)
    assert np.allclose(closed.value.matrix, fd.value.matrix, atol=1e-12)
    assert np.allclose(closed.deriv, fd.deriv, atol=1e-6)


def test_jet_lift_constant_sections():
    rng = np.random.default_rng(15)
    x = CHART.sample(rng)
    y_jet = SectionJet(x, SO3.random_element(rng), np.zeros((2, 3)))
    g_jet = SectionJet(x, SO3.random_element(rng), np.zeros((2, 3)))
    out = jet_lift_action(SO3_ACTION, y_jet, g_jet)
    assert np.allclose(out.value.matrix, (y_jet.value @ g_jet.value).matrix)
    assert np.allclose(out.deriv, 0.0, atol=1e-12)


def test_adjoint_class_defining_relation():
    rng = np.random.default_rng(16)
    y = SO3_ACTION.space.random_point(rng)
    xi = SO3.random_algebra(rng)
    g = SO3.random_element(rng)
    p1 = AdjointBundlePoint(y, xi)
    same = AdjointBundlePoint(SO3_ACTION.act(y, g), SO3.Ad(g.inverse(), xi))
    assert adjoint_class_equal(p1, p1)
    assert adjoint_class_equal(p1, same)


def test_adjoint_class_detects_missing_twist():
    rng = np.random.default_rng(17)
    y = SO3_ACTION.space.random_point(rng)
    xi = SO3.algebra([0.9, 0.0, 0.0])
    g = SO3.exp(SO3.algebra([0.0, 0.0, 1.0]))
    wrong = AdjointBundlePoint(SO3_ACTION.act(y, g), xi)
    assert adjoint_class_residual(AdjointBundlePoint(y, xi), wrong) > 1e-2
    assert not adjoint_class_equal(AdjointBundlePoint(y, xi), wrong)
