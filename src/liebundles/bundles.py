"""Trivialized group bundles, fibered actions, generators, and jets.

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

from .calculus import ChartDomain, central_difference, draw_rows
from .errors import UsageError
from .groups import AlgebraElement, GroupDescriptor, GroupElement, _frobenius, _norm

__all__ = [
    "LieGroupBundle",
    "TotalSpace",
    "TotalPoint",
    "Tangent",
    "FiberedAction",
    "SectionJet",
    "jet_lift_action",
    "vertical_isomorphism_check",
    "equivariance_of_generators",
    "paired_generator_residual",
    "AdjointBundlePoint",
    "adjoint_class_residual",
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


@dataclass(frozen=True, eq=False)
class TotalPoint:
    q: np.ndarray
    fiber: GroupElement

    def distance(self, other: "TotalPoint"):
        """|q - q'| + |fiber - fiber'|_F: a float, or one per row of a stack."""
        return _norm(self.q - other.q) + _frobenius(self.fiber.matrix - other.fiber.matrix)

    def arrays(self):
        """(base point, fiber matrix): the pair `central_difference` differences."""
        return self.q, self.fiber.matrix


@dataclass(frozen=True, eq=False)
class Tangent:
    """Tangent (u, delta) at a total point: base velocity plus right-trivialized
    fiber velocity."""

    u: np.ndarray
    delta: AlgebraElement


class FiberedAction:
    """Vertical right action of the group bundle on the total space: right
    multiplication in the fiber (torsor model)."""

    def __init__(self, space: TotalSpace, bundle: LieGroupBundle):
        if space.fiber is not bundle.fiber:
            raise UsageError("torsor action requires matching fiber descriptors")
        self.space = space
        self.bundle = bundle

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
        """Columns are the fiber components of the basis generators at y."""
        desc = self.space.fiber
        cols = [self.generator(y, desc.algebra(e)).delta.coords for e in np.eye(desc.dim)]
        return np.column_stack(cols)

    # -- axioms -----------------------------------------------------------

    def validate(self, rng, samples=200):
        """Worst residual of verticality, compatibility and unit, then of
        freeness, each on ``samples`` random draws evaluated as one stack; a
        sampled y.g = y with g far from 1 counts as residual 1."""
        desc = self.space.fiber

        def draw(elements):
            """A stack of points, then ``elements`` stacks of group elements."""
            x, *coords = draw_rows(samples, lambda: (self.space.quotient.sample(rng), *(
                desc.random_coords(rng) for _ in range(elements + 1))))
            fiber, *rest = (desc.exp(desc.algebra(c)) for c in coords)
            return (TotalPoint(x, fiber), *rest)

        y, g, h = draw(2)
        worst = max(np.max(_norm(self.act(y, g).q - y.q)),
                    np.max(self.act(self.act(y, h), g).distance(self.act(y, h @ g))),
                    np.max(self.act(y, desc.identity()).distance(y)))
        y, g = draw(1)
        moved = _frobenius(g.matrix - np.eye(desc.matrix_dim)) > 1e-8
        if np.any(moved & (self.act(y, g).distance(y) <= 1e-10)):
            worst = max(worst, 1.0)
        return float(worst)


def vertical_isomorphism_check(action: FiberedAction, y: TotalPoint) -> float:
    """Condition number max(1, s_max) / s_min of xi -> generator(y, xi) from
    its singular values: infinite when the map is singular."""
    svals = np.linalg.svd(action.generator_matrix(y), compute_uv=False)
    return float(max(1.0, svals[0]) / svals[-1]) if svals[-1] > 0 else np.inf


def equivariance_of_generators(action, y, g, xi):
    """Residual of pushing a generator through the action versus the adjoint-
    twisted generator at the translated point, both by central differences:
    the paired residual with a zero group velocity."""
    zero = action.space.fiber.algebra(np.zeros_like(xi.coords))
    return paired_generator_residual(action, y, g, xi, zero)


def paired_generator_residual(action, y, g, xi, eta):
    """Residual of d(action) on the generator pair (xi at y, left-flow eta at g)
    against the generator of Ad_{g^{-1}}(xi + eta) at y.g."""
    desc = action.space.fiber

    def curve(s):
        ys = action.act(y, desc.exp(desc.algebra(s * xi.coords)))
        gs = desc.exp(desc.algebra(s * eta.coords)) @ g
        return action.act(ys, gs).arrays()

    lhs_base, lhs_fiber = central_difference(curve, 1e-5)

    target = desc.Ad(g.inverse(), desc.algebra(xi.coords + eta.coords))
    yg = action.act(y, g)

    def gen(s):
        return action.act(yg, desc.exp(desc.algebra(s * target.coords))).arrays()

    rhs_base, rhs_fiber = central_difference(gen, 1e-5)
    return float(np.linalg.norm(lhs_fiber - rhs_fiber) + np.linalg.norm(lhs_base - rhs_base))


# ---------------------------------------------------------------------------
# jets
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SectionJet:
    """One-jet of a fiber-valued section at a base point.

    ``value`` is the fiber element; ``deriv`` has shape (n, dim_g) and holds
    the right-trivialized derivative along each base direction.
    """

    x: np.ndarray
    value: GroupElement
    deriv: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "deriv", np.asarray(self.deriv, dtype=float))


def jet_lift_action(action: FiberedAction, y_jet: SectionJet, g_jet: SectionJet) -> SectionJet:
    """Jet of the composite x -> action(y-section(x), g-section(x)), by the
    chain rule through the action differential (analytic for the torsor
    model)."""
    if y_jet.deriv.shape != g_jet.deriv.shape:
        raise UsageError("jet derivative arrays must have matching shapes")
    desc = action.space.fiber
    y0 = TotalPoint(y_jet.x, y_jet.value)
    value = action.act(y0, g_jet.value)
    rows = [action.differential(y0, g_jet.value, Tangent(u, desc.algebra(dy)),
                                Tangent(u, desc.algebra(dg))).delta.coords
            for u, dy, dg in zip(np.eye(len(y_jet.deriv)), y_jet.deriv, g_jet.deriv)]
    return SectionJet(y_jet.x, value.fiber, np.vstack(rows))


# ---------------------------------------------------------------------------
# adjoint bundle classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AdjointBundlePoint:
    """Representative (y, xi) of a class under (y.g, Ad_{g^{-1}} xi)."""

    y: TotalPoint
    xi: AlgebraElement


def solve_torsor_transition(y1: TotalPoint, y2: TotalPoint) -> GroupElement:
    """Unique g with y1 . g = y2 in the torsor model."""
    if not np.allclose(y1.q, y2.q, atol=1e-9):
        raise UsageError("points lie over different base points")
    return y1.fiber.inverse() @ y2.fiber


def adjoint_class_residual(p1: AdjointBundlePoint, p2: AdjointBundlePoint) -> float:
    g = solve_torsor_transition(p1.y, p2.y)
    desc = p1.xi.descriptor
    expected = desc.Ad(g.inverse(), p1.xi)
    return float(np.linalg.norm(expected.coords - p2.xi.coords))
