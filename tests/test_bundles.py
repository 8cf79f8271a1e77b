"""Fibered action tests: axioms, generators, the action differential and its
finite-difference twin."""

import numpy as np
import pytest

from liebundles import bundles
from liebundles.bundles import (
    FiberedAction,
    Tangent,
    TotalPoint,
    paired_generator_residual,
    product_velocity,
    vertical_isomorphism_check,
)
from liebundles.calculus import ChartDomain, Normal, central_difference
from liebundles.gauge import semidirect_jet_descriptor
from liebundles.groups import so3_descriptor, translation_descriptor

SO3 = so3_descriptor()
T2 = translation_descriptor(2)
CHART = ChartDomain(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))


SO3_ACTION = FiberedAction(CHART, SO3)
T2_ACTION = FiberedAction(CHART, T2)


class FrozenAction(FiberedAction):
    """Degenerate action that fixes every point: not free, zero generators."""

    def act(self, y, g):
        return y

    def generator(self, y, xi):
        return Tangent(np.zeros(self.space.quotient.dim), self.space.fiber.zero())


def test_action_axioms_on_samples():
    rng = np.random.default_rng(1)
    assert SO3_ACTION.validate(rng, samples=1000) <= 1e-10
    assert T2_ACTION.validate(rng, samples=1000) <= 1e-10


def test_degenerate_action_detected():
    frozen = FrozenAction(CHART, SO3)
    rng = np.random.default_rng(2)
    # the axioms hold trivially; freeness fails and reads as residual 1
    assert frozen.validate(rng, samples=20) == 1.0


@pytest.mark.parametrize("action", [SO3_ACTION, T2_ACTION], ids=["so3", "translation2"])
def test_random_points_equal_a_loop_of_random_point(action):
    space = action.space

    def draw(rng):
        return lambda: (rng.standard_normal(2), space.fiber.random_coords(rng))

    rng, twin = np.random.default_rng(4), np.random.default_rng(4)
    y, u, xi = space.random_points(rng, 7, Normal((2,)), space.fiber.coords_field)
    loop = [(space.random_point(twin), *draw(twin)()) for _ in range(7)]
    assert np.all(y.q == np.array([p.q for p, _, _ in loop]))
    assert np.all(y.fiber.matrix == np.array([p.fiber.matrix for p, _, _ in loop]))
    assert np.all(u == np.array([v for _, v, _ in loop]))
    assert np.all(xi == np.array([c for _, _, c in loop]))
    (alone,) = space.random_points(rng, 3)
    lone = [space.random_point(twin) for _ in range(3)]
    assert np.all(alone.fiber.matrix == np.array([p.fiber.matrix for p in lone]))
    assert rng.random() == twin.random()


def test_generator_of_zero_vanishes():
    rng = np.random.default_rng(3)
    y = SO3_ACTION.space.random_point(rng)
    t = SO3_ACTION.generator(y, SO3.zero())
    assert not np.any(t.u) and not np.any(t.delta.coords)


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
    # Ad_h is orthogonal for so3, so the generator matrix has unit singular values
    svals = np.linalg.svd(SO3_ACTION.generator_matrix(y), compute_uv=False)
    assert svals == pytest.approx(np.ones(3), abs=1e-10)
    assert vertical_isomorphism_check(SO3_ACTION, y) == pytest.approx(1.0, abs=1e-10)


def test_vertical_isomorphism_identity_on_affine():
    rng = np.random.default_rng(7)
    y = T2_ACTION.space.random_point(rng)
    svals = np.linalg.svd(T2_ACTION.generator_matrix(y), compute_uv=False)
    assert svals[-1] == pytest.approx(1.0, abs=1e-12)
    assert vertical_isomorphism_check(T2_ACTION, y) == pytest.approx(1.0, abs=1e-12)


def test_vertical_isomorphism_degenerate_has_rank_zero():
    frozen = FrozenAction(CHART, SO3)
    rng = np.random.default_rng(8)
    y = frozen.space.random_point(rng)
    assert vertical_isomorphism_check(frozen, y) == np.inf


def test_generator_equivariance_identity_and_abelian():
    rng = np.random.default_rng(9)
    y = SO3_ACTION.space.random_point(rng)
    xi = SO3.random_algebra(rng)
    assert paired_generator_residual(SO3_ACTION, y, SO3.identity(), xi, SO3.zero()) <= 1e-9
    yv = T2_ACTION.space.random_point(rng)
    g = T2.random_element(rng)
    assert paired_generator_residual(T2_ACTION, yv, g, T2.algebra([1.0, 2.0]), T2.zero()) <= 1e-9


def test_generator_equivariance_so3_random():
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(10):
        y = SO3_ACTION.space.random_point(rng)
        g = SO3.random_element(rng)
        xi = SO3.random_algebra(rng)
        worst = max(worst, paired_generator_residual(SO3_ACTION, y, g, xi, SO3.zero()))
    assert worst <= 1e-7


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


@pytest.mark.parametrize("desc", [SO3, T2, semidirect_jet_descriptor(SO3, 2)],
                         ids=["so3", "translation", "semidirect-jet"])
def test_product_velocity_matches_differential(desc):
    """The finite-difference pushforward and the closed-form differential
    agree on random generator pairs, also on a descriptor with no hooks."""
    action = FiberedAction(CHART, desc)
    rng = np.random.default_rng(18)
    worst = 0.0
    for _ in range(10):
        y = action.space.random_point(rng)
        g = desc.random_element(rng)
        u = rng.standard_normal(2)
        a, b = desc.random_algebra(rng), desc.random_algebra(rng)
        closed = action.differential(y, g, Tangent(u, a), Tangent(u, b)).delta.coords
        fd = product_velocity(desc, y.fiber, a.coords, g, b.coords, 1e-5)
        worst = max(worst, float(np.max(np.abs(fd - closed))))
    assert worst <= 1e-8


def test_planted_stencil_error_fails_paired_generators(monkeypatch):
    """Only the pushforward side runs a finite difference, so a 1% stencil
    error cannot cancel against the closed-form side."""
    rng = np.random.default_rng(11)
    y = SO3_ACTION.space.random_point(rng)
    g = SO3.random_element(rng)
    xi, eta = SO3.random_algebra(rng), SO3.random_algebra(rng)
    assert paired_generator_residual(SO3_ACTION, y, g, xi, eta) <= 1e-6
    monkeypatch.setattr(bundles, "central_difference",
                        lambda f, eps: (f(eps) - f(-eps)) / (2.02 * eps))
    assert paired_generator_residual(SO3_ACTION, y, g, xi, eta) > 1e-6
    assert paired_generator_residual(SO3_ACTION, y, g, xi, SO3.zero()) > 1e-6


def test_differential_unit_group_keeps_y_tangent():
    rng = np.random.default_rng(13)
    y = TotalPoint(CHART.sample(rng), SO3.random_element(rng))
    eye = np.eye(2)
    t_y = Tangent(eye, SO3.algebra(rng.standard_normal((2, 3))))
    t_unit = Tangent(eye, SO3.algebra(np.zeros((2, 3))))
    out = SO3_ACTION.differential(y, SO3.identity(), t_y, t_unit)
    assert np.allclose(SO3_ACTION.act(y, SO3.identity()).fiber.matrix, y.fiber.matrix)
    assert np.allclose(out.delta.coords, t_y.delta.coords, atol=1e-12)


def test_differential_chain_rule_matches_fd_oracle():
    # the n base directions of two section jets, pushed as one stacked
    # tangent pair, against central differences of representative sections
    rng = np.random.default_rng(14)
    y = TotalPoint(CHART.sample(rng), SO3.random_element(rng))
    dy = rng.standard_normal((2, 3))
    g = SO3.random_element(rng)
    dg = rng.standard_normal((2, 3))
    eye = np.eye(2)
    closed = SO3_ACTION.differential(y, g, Tangent(eye, SO3.algebra(dy)),
                                     Tangent(eye, SO3.algebra(dg))).delta.coords

    def germ(value, deriv, dx):
        # a representative section with this jet: exp(dx . deriv) value
        return SO3.exp(SO3.algebra(dx @ deriv)) @ value

    value = (y.fiber @ g).matrix
    fd = []
    for u in eye:
        dmat = central_difference(
            lambda s: (germ(y.fiber, dy, s * u) @ germ(g, dg, s * u)).matrix, 1e-6)
        fd.append(SO3.matrix_coords(dmat @ np.linalg.inv(value), tol=1e-4))
    assert np.allclose(SO3_ACTION.act(y, g).fiber.matrix, value, atol=1e-12)
    assert np.allclose(closed, np.vstack(fd), atol=1e-6)


def test_differential_of_constant_sections_vanishes():
    rng = np.random.default_rng(15)
    y = TotalPoint(CHART.sample(rng), SO3.random_element(rng))
    g = SO3.random_element(rng)
    eye, zero = np.eye(2), SO3.algebra(np.zeros((2, 3)))
    out = SO3_ACTION.differential(y, g, Tangent(eye, zero), Tangent(eye, zero))
    assert np.allclose(SO3_ACTION.act(y, g).fiber.matrix, (y.fiber @ g).matrix)
    assert np.allclose(out.delta.coords, 0.0, atol=1e-12)
