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
from typing import Callable

import numpy as np

from .calculus import ChartDomain, central_difference
from .errors import UsageError, ValidationError
from .groups import AlgebraElement, GroupDescriptor, GroupElement

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
    "adjoint_class_equal",
]


@dataclass(frozen=True)
class LieGroupBundle:
    """Trivialized Lie group bundle chart x G."""

    base: ChartDomain
    fiber: GroupDescriptor

    def validate_fiberwise_group(self, rng, samples=50, tol=1e-10):
        """Associativity and unit of the fiberwise product on random samples."""
        d = self.fiber
        worst = 0.0
        for _ in range(samples):
            g, h, k = (d.random_element(rng) for _ in range(3))
            left = (g @ h) @ k
            right = g @ (h @ k)
            worst = max(worst, left.distance(right))
            worst = max(worst, (g @ d.identity()).distance(g))
        if worst > tol:
            raise ValidationError(f"fiberwise group axioms fail (residual {worst:.2e})")
        return worst


@dataclass(frozen=True)
class TotalSpace:
    """Trivialized total space: quotient chart x fiber group (torsor model).

    The diagram base <- total -> quotient is realized with quotient = base
    chart; the two projections of a point are its base coordinates, so the
    projection compatibility is structural.
    """

    base: ChartDomain
    quotient: ChartDomain
    fiber: GroupDescriptor

    def point(self, q, fiber_element: GroupElement) -> "TotalPoint":
        return TotalPoint(np.asarray(q, dtype=float), fiber_element)

    def random_point(self, rng, scale=1.0) -> "TotalPoint":
        return TotalPoint(self.quotient.sample(rng), self.fiber.random_element(rng, scale))


@dataclass(frozen=True, eq=False)
class TotalPoint:
    q: np.ndarray
    fiber: GroupElement

    def distance(self, other: "TotalPoint") -> float:
        return float(
            np.linalg.norm(self.q - other.q) + np.linalg.norm(self.fiber.matrix - other.fiber.matrix)
        )

    def arrays(self):
        """(base point, fiber matrix): the pair `central_difference` differences."""
        return self.q, self.fiber.matrix


@dataclass(frozen=True, eq=False)
class Tangent:
    """Tangent (u, delta) at a total point: base velocity plus right-trivialized
    fiber velocity."""

    u: np.ndarray
    delta: AlgebraElement

    def norm(self):
        return float(np.linalg.norm(self.u) + np.linalg.norm(self.delta.coords))


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
        delta_h + Ad_h(delta_g).
        """
        if not np.allclose(ty.u, tg.u):
            raise UsageError("fibered tangent pair must share the base velocity")
        desc = self.space.fiber
        delta = desc.algebra(
            ty.delta.coords + desc.Ad_matrix(y.fiber) @ tg.delta.coords
        )
        return Tangent(ty.u, delta)

    # -- infinitesimal generators -----------------------------------------

    def generator(self, y: TotalPoint, xi: AlgebraElement) -> Tangent:
        """Vertical generator of xi at y: derivative of t -> y . exp(t xi).

        Torsor closed form: right-trivialized value Ad_h(xi)."""
        return Tangent(np.zeros(self.space.quotient.dim), self.space.fiber.Ad(y.fiber, xi))

    def generator_matrix(self, y: TotalPoint) -> np.ndarray:
        """Columns are the fiber components of the basis generators at y."""
        desc = self.space.fiber
        cols = [self.generator(y, desc.algebra(e)).delta.coords for e in np.eye(desc.dim)]
        return np.column_stack(cols)

    # -- axioms -----------------------------------------------------------

    def validate(self, rng, samples=200, tol=1e-10):
        """Verticality, compatibility and unit, then freeness, each on
        ``samples`` random draws; raises when any fails."""
        desc = self.space.fiber
        worst = 0.0
        for _ in range(samples):
            y = self.space.random_point(rng)
            g = desc.random_element(rng)
            h = desc.random_element(rng)
            yg = self.act(y, g)
            worst = max(worst, float(np.linalg.norm(yg.q - y.q)))
            two_step = self.act(self.act(y, h), g)
            one_step = self.act(y, h @ g)
            worst = max(worst, two_step.distance(one_step))
            worst = max(worst, self.act(y, desc.identity()).distance(y))
        if worst > tol:
            raise ValidationError(f"fibered action axioms fail (residual {worst:.2e})")
        for _ in range(samples):
            y = self.space.random_point(rng)
            g = desc.random_element(rng)
            if np.linalg.norm(g.matrix - np.eye(desc.matrix_dim)) > 1e-8:
                if self.act(y, g).distance(y) <= 1e-10:
                    raise ValidationError("sampled freeness violation: y.g = y with g far from 1")
        return worst


def vertical_isomorphism_check(action: FiberedAction, y: TotalPoint, tol=1e-10):
    """Rank test for xi -> generator(y, xi); reports the minimal singular value."""
    mat = action.generator_matrix(y)
    svals = np.linalg.svd(mat, compute_uv=False)
    dim = action.space.fiber.dim
    rank = int(np.sum(svals > tol * max(1.0, svals[0] if svals.size else 1.0)))
    report = {"rank": rank, "dim": dim, "min_singular_value": float(svals[-1]) if svals.size else 0.0}
    if rank < dim:
        raise ValidationError(
            f"generator map is rank-deficient ({rank} < {dim}): degenerate action", report
        )
    return report


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

    def section(self, descriptor: GroupDescriptor) -> Callable[[np.ndarray], GroupElement]:
        """Representative germ with this jet: exp(deriv . dx) value."""

        def rep(xq):
            dx = np.asarray(xq, dtype=float) - self.x
            return descriptor.exp(descriptor.algebra(dx @ self.deriv)) @ self.value

        return rep


def jet_lift_action(
    action: FiberedAction,
    y_jet: SectionJet,
    g_jet: SectionJet,
    fd: bool = False,
) -> SectionJet:
    """Jet of the composite x -> action(y-section(x), g-section(x)).

    Uses the chain rule via the action differential (analytic for the torsor
    model); with ``fd=True`` recomputes slotwise from representative germs by
    central differences at step 1e-6, as an independent cross-check path.
    """
    if y_jet.deriv.shape != g_jet.deriv.shape:
        raise UsageError("jet derivative arrays must have matching shapes")
    desc = action.space.fiber
    y0 = TotalPoint(y_jet.x, y_jet.value)
    value = action.act(y0, g_jet.value)
    y_rep, g_rep = y_jet.section(desc), g_jet.section(desc)

    def composite(x):
        return action.act(TotalPoint(y_jet.x, y_rep(x)), g_rep(x)).fiber.matrix

    rows = []
    for u, dy, dg in zip(np.eye(len(y_jet.deriv)), y_jet.deriv, g_jet.deriv):
        if fd:
            dmat = central_difference(lambda s: composite(y_jet.x + s * u), 1e-6)
            rows.append(desc.matrix_coords(dmat @ np.linalg.inv(value.fiber.matrix), tol=1e-4))
        else:
            t = action.differential(y0, g_jet.value, Tangent(u, desc.algebra(dy)),
                                    Tangent(u, desc.algebra(dg)))
            rows.append(t.delta.coords)
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


def adjoint_class_equal(p1: AdjointBundlePoint, p2: AdjointBundlePoint, tol=1e-9) -> bool:
    return adjoint_class_residual(p1, p2) <= tol
