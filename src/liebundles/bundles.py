"""Trivialized group bundles, the fibered action and its generators.

Everything lives in a single-chart presentation: the group bundle is
chart x G, the total space is quotient-chart x G with the fiber acting by
right multiplication (torsor model).  Vector fibers reuse the translation
group descriptor, so one code path covers both.

Tangent vectors at a total-space point carry the base component u and the
right-trivialized fiber velocity delta (so the fiber part of a curve h(t)
is recovered from h' = delta h).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import ChartDomain, central_difference, sample_rows
from .errors import UsageError
from .groups import AlgebraElement, GroupDescriptor, GroupElement, _frobenius, _norm

__all__ = [
    "LieGroupBundle",
    "TotalSpace",
    "TotalPoint",
    "Tangent",
    "FiberedAction",
    "vertical_isomorphism_check",
    "product_velocity",
    "paired_generator_residual",
]


@dataclass(frozen=True)
class LieGroupBundle:
    """Trivialized Lie group bundle chart x G."""

    base: ChartDomain
    fiber: GroupDescriptor


@dataclass(frozen=True)
class TotalSpace:
    """Trivialized total space: quotient chart x fiber group (torsor model).

    The diagram base <- total -> quotient is realized with quotient = base
    chart; the two projections of a point are its base coordinates, so the
    projection compatibility is structural.
    """

    quotient: ChartDomain
    fiber: GroupDescriptor

    def random_point(self, rng) -> "TotalPoint":
        return TotalPoint(self.quotient.sample(rng), self.fiber.random_element(rng))

    def random_points(self, rng, count, *fields):
        """``count`` random points, each followed by a row of ``fields``, in the
        RNG order of a loop that calls `random_point` (a chart sample, then the
        fiber's coordinates) and then draws the row; returns the stacked
        TotalPoint, then the stacked draws (`calculus.sample_rows`)."""
        x, coords, *draws = sample_rows(rng, count, self.quotient.field, self.fiber.coords_field,
                                        *fields)
        return (TotalPoint(self.quotient.place(x), self.fiber.exp(self.fiber.algebra(coords))),
                *draws)


@dataclass(frozen=True, eq=False)
class TotalPoint:
    q: np.ndarray
    fiber: GroupElement

    def distance(self, other: "TotalPoint"):
        """|q - q'| + |fiber - fiber'|_F: a float, or one per row of a stack."""
        return _norm(self.q - other.q) + _frobenius(self.fiber.matrix - other.fiber.matrix)


@dataclass(frozen=True, eq=False)
class Tangent:
    """Tangent (u, delta) at a total point: base velocity plus right-trivialized
    fiber velocity."""

    u: np.ndarray
    delta: AlgebraElement


class FiberedAction:
    """Right multiplication in the fiber (torsor model): the vertical action of
    the group bundle chart x G on the total space chart x G."""

    def __init__(self, chart: ChartDomain, group: GroupDescriptor):
        self.space = TotalSpace(chart, group)
        self.bundle = LieGroupBundle(chart, group)

    # -- the action ------------------------------------------------------

    def act(self, y: TotalPoint, g: GroupElement) -> TotalPoint:
        return TotalPoint(y.q, y.fiber @ g)

    def differential(self, y: TotalPoint, g: GroupElement, ty: Tangent, tg: Tangent) -> Tangent:
        """d(action) applied to a fibered tangent pair over a common base velocity.

        Torsor closed form: d(h g) right-trivialized at hg equals
        delta_h + Ad_h(delta_g).  Stacked points and tangents act row by row.
        """
        if not np.allclose(ty.u, tg.u):
            raise UsageError("fibered tangent pair must share the base velocity")
        desc = self.space.fiber
        delta = desc.algebra(
            ty.delta.coords + (desc.Ad_matrix(y.fiber) @ tg.delta.coords[..., None])[..., 0]
        )
        return Tangent(ty.u, delta)

    # -- infinitesimal generators -----------------------------------------

    def generator(self, y: TotalPoint, xi: AlgebraElement) -> Tangent:
        """Vertical generator of xi at y: derivative of t -> y . exp(t xi).

        Torsor closed form: right-trivialized value Ad_h(xi); a stack of
        fibers or of xi gives a stack of tangents."""
        delta = self.space.fiber.Ad(y.fiber, xi)
        return Tangent(np.zeros(delta.coords.shape[:-1] + (self.space.quotient.dim,)), delta)

    def generator_matrix(self, y: TotalPoint) -> np.ndarray:
        """Columns are the fiber components of the basis generators at y; a
        stack of fibers gives a stack of matrices."""
        desc = self.space.fiber
        return np.stack([self.generator(y, desc.algebra(e)).delta.coords
                         for e in np.eye(desc.dim)], axis=-1)

    # -- axioms -----------------------------------------------------------

    def validate(self, rng, samples=200):
        """Worst residual of verticality, compatibility and unit, then of
        freeness, each on ``samples`` random draws evaluated as one stack; a
        sampled y.g = y with g far from 1 counts as residual 1."""
        desc = self.space.fiber

        def draw(elements):
            """A stack of points, then ``elements`` stacks of group elements."""
            y, *coords = self.space.random_points(rng, samples, *[desc.coords_field] * elements)
            return (y, *(desc.exp(desc.algebra(c)) for c in coords))

        y, g, h = draw(2)
        worst = max(np.max(_norm(self.act(y, g).q - y.q)),
                    np.max(self.act(self.act(y, h), g).distance(self.act(y, h @ g))),
                    np.max(self.act(y, desc.identity()).distance(y)))
        y, g = draw(1)
        moved = _frobenius(g.matrix - np.eye(desc.matrix_dim)) > 1e-8
        if np.any(moved & (self.act(y, g).distance(y) <= 1e-10)):
            worst = max(worst, 1.0)
        return float(worst)


def vertical_isomorphism_check(action: FiberedAction, y: TotalPoint):
    """Condition number max(1, s_max) / s_min of xi -> generator(y, xi) from
    its singular values, infinite where the map is singular: a float, or one
    per point of a stack."""
    svals = np.linalg.svd(action.generator_matrix(y), compute_uv=False)
    low = svals[..., -1]
    with np.errstate(divide="ignore"):
        return np.where(low > 0, np.maximum(1.0, svals[..., 0]) / low, np.inf)[()]


def product_velocity(desc: GroupDescriptor, h: GroupElement, a, g: GroupElement, b, eps):
    """Right-trivialized velocity at h g of s -> (exp(s a) h)(exp(s b) g), for
    algebra coordinates a and b, from one central difference at step eps: the
    finite-difference twin of `FiberedAction.differential` on (a at h, b at g).
    Stacks of h, a, g and b give one velocity per row."""

    def curve(s):
        return ((desc.exp(desc.algebra(s * a)) @ h) @ (desc.exp(desc.algebra(s * b)) @ g)).matrix

    dmat = central_difference(curve, eps)
    return desc.matrix_coords(dmat @ desc.inverse((h @ g).matrix), tol=1e-4)


def paired_generator_residual(action, y, g, xi, eta):
    """Residual of d(action) on the generator pair (xi at y, left-flow eta at g),
    by `product_velocity`, against the closed-form generator of
    Ad_{g^{-1}}(xi + eta) at y.g; a zero eta measures the equivariance of
    generators.  One residual per row of stacked points."""
    desc = action.space.fiber
    lhs = product_velocity(desc, y.fiber, action.generator(y, xi).delta.coords, g, eta.coords, 1e-5)
    target = desc.Ad(g.inverse(), desc.algebra(xi.coords + eta.coords))
    return _norm(lhs - action.generator(action.act(y, g), target).delta.coords)
