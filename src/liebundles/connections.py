"""Multiplicative connections on trivialized Lie group bundles.

A connection is encoded by its horizontal-lift cocycle h(x, g, u): the
horizontal lift of a base vector u at fiber point g has right-trivialized
fiber velocity h(x, g, u).  Multiplicativity of parallel transport is
equivalent to the cocycle law

    h(x, g g', u) = h(x, g, u) + Ad_g h(x, g', u),        h(x, 1, u) = 0.

The canonical constructor derives the cocycle from a base 1-form A:

    h(x, g, u) = Ad_g(A_x(u)) - A_x(u),

which satisfies the law identically; the induced transport of exp(eps xi)
then linearizes to the algebra transport ODE xi' = -[A(x'), xi].
"""

from __future__ import annotations

import numpy as np

from .bundles import LieGroupBundle, product_velocity
from .calculus import (AlgebraOneForm, BaseCurve, FiberMap, Normal, central_difference,
                       sample_rows)
from .groups import AlgebraElement, GroupElement, _eye_stack, _frobenius, _norm
from .integrators import Transport, integrate_linear, integrate_stack, planned

__all__ = [
    "LieGroupBundleConnection",
    "AlgebraConnection",
    "validate_group_connection",
    "transport_group",
    "transport_multiplicativity_check",
    "transport_unit_inverse_check",
    "algebra_transport",
    "algebra_transport_fd",
    "algebra_transport_linearity_check",
    "ad_compatibility_check",
    "covariant_derivative_bracket_check",
    "horizontal_product_rule_check",
]


class LieGroupBundleConnection:
    """Connection on chart x G given by its horizontal-lift cocycle.

    ``lift_map(x, u)`` computes the x-dependent part of h(x, g, u) once per
    (x, u) and returns the `FiberMap` from a (..., m, m) array of fiber
    matrices to the (..., dim) coordinates of h.  It also takes a batch of
    points with any leading axes: x and u of shape (R, n) give the map from
    an (R, m, m) stack, row r at (x[r], u[r]), to (R, dim).  ``base_form`` is
    the coefficient 1-form A of a connection built by `from_base_form`;
    `AlgebraConnection.generator` reads its closed form from A.
    """

    def __init__(self, bundle: LieGroupBundle, lift_map, base_form=None):
        self.bundle = bundle
        self._lift_map = lift_map
        self.base_form = base_form

    @classmethod
    def from_base_form(cls, bundle: LieGroupBundle, form: AlgebraOneForm):
        desc = bundle.fiber
        ad = desc.ad_matrix_hook or desc.Ad_matrix

        def lift(fibers, a):
            return np.matvec(ad(fibers), a) - a

        return cls(bundle, lambda x, u: FiberMap(lift, form.coords(x, u)), base_form=form)

    @classmethod
    def trivial(cls, bundle: LieGroupBundle):
        """The connection of the zero base form: its lift Ad_g 0 - 0 is zero."""
        dim = bundle.fiber.dim
        return cls.from_base_form(bundle, AlgebraOneForm(
            bundle.fiber, lambda x: np.zeros((np.shape(x)[-1], dim))))

    # -- pointwise maps ----------------------------------------------------

    def horizontal_delta(self, x, g: GroupElement, u) -> AlgebraElement:
        return self.bundle.fiber.algebra(self.lift_map(x, u)(g.matrix))

    def lift_map(self, x, u) -> FiberMap:
        """The map from fiber matrices (..., m, m) to the coordinates
        (..., dim) of h(x, g, u) at fixed (x, u)."""
        return self._lift_map(np.asarray(x, float), np.asarray(u, float))

    def connection_form(self, x, g: GroupElement, u, delta: AlgebraElement) -> AlgebraElement:
        """Algebra-valued connection form: delta minus the horizontal part."""
        h = self.horizontal_delta(x, g, u)
        return g.descriptor.algebra(delta.coords - h.coords)


def validate_group_connection(nu, rng, samples=100):
    """Worst residuals of the unit-kernel and cocycle laws plus the jet
    formulation on random samples.

    The jet formulation multiplies jets of horizontal sections through g and
    g' (value gh', derivative delta_g + Ad_g delta_g') and compares against
    the horizontal jet through g g'.  The samples are drawn one at a time and
    evaluated as one stack, whose row (sample, k) lifts along u for k = 0 and
    along the base direction e_k for the jet rows k = 1..n.
    """
    desc = nu.bundle.fiber
    n = nu.bundle.base.dim
    x, u, fg, fgp = sample_rows(rng, samples, nu.bundle.base.field, Normal((n,)),
                                desc.coords_field, desc.coords_field)
    x = nu.bundle.base.place(x)
    g, gp = desc.exp(desc.algebra(fg)), desc.exp(desc.algebra(fgp))
    lift = nu.lift_map(np.repeat(x, n + 1, axis=0), np.concatenate(
        [u[:, None], np.broadcast_to(np.eye(n), (samples, n, n))], axis=1).reshape(-1, n))

    def h(fibers):
        return lift(np.repeat(fibers, n + 1, axis=0)).reshape(samples, n + 1, desc.dim)

    h_g, h_gp, h_ggp, ad = h(g.matrix), h(gp.matrix), h((g @ gp).matrix), desc.Ad_matrix(g)
    cocycle = h_ggp[:, 0] - (h_g[:, 0] + (ad @ h_gp[:, 0, :, None])[..., 0])
    jet = h_g[:, 1:] + np.swapaxes(ad @ np.swapaxes(h_gp[:, 1:], -1, -2), -1, -2) - h_ggp[:, 1:]
    return {
        "unit_kernel": float(np.max(_norm(h(_eye_stack(desc.matrix_dim, (samples,)))[:, 0]))),
        "cocycle": float(np.max(_norm(cocycle))),
        "jet_multiplicativity": float(np.max(np.abs(jet))),
    }


def transport_group(nu: LieGroupBundleConnection, curve: BaseCurve, g0: GroupElement, step=1e-2,
                    with_error_estimate=False):
    """Parallel transport of g0 along the curve: integrate the horizontal lift.

    ``g0`` may hold an (R, m, m) stack, whose rows are transported as one
    stack; on a family of R curves (position of shape (R, n)) row r rides
    curve r.  Returns the one TransportResult of `integrate_stack`; its base
    schedule is the lift map at every stage point.
    """
    return integrate_stack(
        lambda times: nu.lift_map(curve.position(times), curve.velocity(times)),
        nu.bundle.fiber, g0.matrix, (curve.a, curve.b), step, with_error_estimate)


@planned
def transport_multiplicativity_check(nu, curve, g, h, step=1e-2):
    """|| transport(gh) - transport(g) transport(h) ||, with g, h and gh
    transported as independent rows of one stack.

    On a family of C curves g and h hold one (C, m, m) fiber per curve and
    the result is one residual per curve; a lone curve gives a numpy float.
    """
    ((tg, th, tgh),) = yield [Transport(nu.lift_map, curve, [g, h, g @ h], step)]
    return _frobenius(tgh - tg @ th)


@planned
def transport_unit_inverse_check(nu, curve, g, step=1e-2):
    """Residuals of transporting the unit and of the inverse law, one pair of
    numpy floats for a lone curve or of per-curve arrays for a family (g then
    holds one fiber per curve)."""
    desc = nu.bundle.fiber
    eye = np.eye(desc.matrix_dim)
    unit = GroupElement(np.broadcast_to(eye, g.matrix.shape), desc, check=False)
    ((t1, tg, tginv),) = yield [Transport(nu.lift_map, curve, [unit, g, g.inverse()], step)]
    return _frobenius(t1 - eye), _frobenius(tginv - desc.inverse(tg))


class AlgebraConnection:
    """Linear connection on the algebra bundle induced by a group connection.

    ``generator(x, u)`` is the matrix of the transport ODE xi' = K xi on
    coordinates, or a (..., dim, dim) stack for x and u with leading axes;
    the covariant derivative of a section is then
    nabla_u xi = D xi(u) - K(x, u) xi.
    """

    def __init__(self, nu: LieGroupBundleConnection):
        self.nu = nu
        self.descriptor = nu.bundle.fiber

    def generator(self, x, u) -> np.ndarray:
        desc = self.descriptor
        if self.nu.base_form is not None:
            return -desc.ad_matrix(self.nu.base_form.coords(x, u))
        # linearize the cocycle in the fiber around the identity
        lift = self.nu.lift_map(x, u)
        cols = [central_difference(lambda s: lift(desc.exp(desc.algebra(s * e)).matrix), 1e-6)
                for e in np.eye(desc.dim)]
        return np.stack(cols, axis=-1)


def _algebra_flow(nu, curve, columns, step):
    """Linear transport of coordinate columns (a (d, k) array, or (C, d, k)
    with k columns per curve of a family) by the transport ODE with generator
    K(x(t), x'(t)), evaluated at every stage point of the curve at once."""
    conn = AlgebraConnection(nu)

    def k_matrices(times):
        return conn.generator(curve.position(times), curve.velocity(times))

    return integrate_linear(k_matrices, columns, (curve.a, curve.b), step)


def algebra_transport(nu, curve, xi: AlgebraElement, step=1e-2) -> AlgebraElement:
    """Induced linear transport of xi along the curve: the linear ODE with
    generator K(x(t), x'(t)).  `algebra_transport_fd` is the independent
    reference path.  On a family of C curves xi and the result hold one
    (C, dim) row per curve.
    """
    return nu.bundle.fiber.algebra(_algebra_flow(nu, curve, xi.coords[..., None], step)[..., 0])


@planned
def algebra_transport_fd(nu, curve, xi: AlgebraElement, eps, step=1e-2) -> np.ndarray:
    """Central difference at 0 of eps -> log transport_group(exp(eps xi)), with
    exp(eps xi) and exp(-eps xi) transported as rows of one stack.

    On a family of C curves xi holds one (C, dim) row per curve and ``eps``
    may hold one step per curve; the result has the shape of ``xi.coords``.
    """
    desc = nu.bundle.fiber
    eps = np.asarray(eps, dtype=float)[..., None]
    (ends,) = yield [Transport(
        nu.lift_map, curve, [desc.exp(desc.algebra(s * xi.coords)) for s in (eps, -eps)], step)]
    # both ends come from the one stack above; central_difference asks for +eps
    # first; they are retracted integrator ends, so their logs need no check
    return central_difference(lambda s: desc.log_coords(ends.pop(0)), eps)


def algebra_transport_linearity_check(nu, curve, xi, eta, a, b, step=1e-2):
    """|| T(a xi + b eta) - a T(xi) - b T(eta) || for the algebra transport T.

    On a family of C curves xi and eta hold (C, dim) stacks and a, b one
    coefficient per curve; the result is one residual per curve.
    """
    a, b = np.asarray(a, float)[..., None], np.asarray(b, float)[..., None]
    combo = a * xi.coords + b * eta.coords
    t_combo, t_xi, t_eta = np.moveaxis(_algebra_flow(
        nu, curve, np.stack([combo, xi.coords, eta.coords], axis=-1), step), -1, 0)
    return _norm(t_combo - a * t_xi - b * t_eta)


@planned
def ad_compatibility_check(nu, curve, g, xi, step=1e-2):
    """|| transport(Ad_g xi) - Ad_{transport(g)}(transport(xi)) ||, one
    residual per curve on a family (g and xi then hold one row per curve)."""
    desc = nu.bundle.fiber
    lhs, txi = np.moveaxis(_algebra_flow(
        nu, curve, np.stack([desc.Ad(g, xi).coords, xi.coords], axis=-1), step), -1, 0)
    ((tg,),) = yield [Transport(nu.lift_map, curve, [g], step)]
    return _norm(lhs - desc.Ad(GroupElement(tg, desc, check=False), desc.algebra(txi)).coords)


def _restricted_curve(curve, t_lo, t_hi):
    return BaseCurve(t_lo, t_hi, curve.position, curve.velocity, label=curve.label)


def _covariant_group_derivative(nu, curve, g_path, t, ds, step):
    """nabla g(t)/dt as d/ds of pulling g(t+s) back to x(t), central differences: a
    plan that yields the segment transports in `central_difference`'s order, +ds first."""

    def pulled(s):
        seg = _restricted_curve(curve, min(t, t + s), max(t, t + s))
        back = _reversed_curve(seg) if s > 0 else seg
        return Transport(nu.lift_map, back, [g_path(t + s)], step)

    ends = yield [pulled(ds), pulled(-ds)]
    return central_difference(lambda s: ends.pop(0)[0], ds)


def _reversed_curve(seg):
    """The curve run backwards on the same interval, from seg.b to seg.a."""
    a, b = seg.a, seg.b
    return BaseCurve(a, b, lambda t: seg.position(a + b - t),
                     lambda t: -np.asarray(seg.velocity(a + b - t)), label=seg.label + "-rev")


@planned
def covariant_derivative_bracket_check(nu, curve, g_path, xi_path, t):
    """Residual of the product rule tying nabla(Ad_g xi) to Ad_g nabla xi plus
    the bracket with the right-trivialized covariant velocity of g.

    All derivatives by central differences at step 1e-4 in t; transports by
    the group integrator at step 1e-3.  On a family of C curves g_path and
    xi_path return one row per curve, and the result is one residual per
    curve, each equal to that curve alone.
    """
    desc = nu.bundle.fiber
    conn = AlgebraConnection(nu)
    ds = 1e-4

    def algebra_section(tt):
        return desc.Ad(g_path(tt), xi_path(tt)).coords

    k_t = conn.generator(curve.position(t), curve.velocity(t))

    def covariant_of(section):
        dsec = central_difference(lambda s: np.asarray(section(t + s)), ds)
        return dsec - (k_t @ np.asarray(section(t))[..., None])[..., 0]

    lhs = covariant_of(algebra_section)

    nabla_xi = covariant_of(lambda tt: xi_path(tt).coords)
    dg = yield from _covariant_group_derivative(nu, curve, g_path, t, ds, 1e-3)
    g_t = g_path(t)
    rtd = desc.matrix_coords(dg @ g_t.inverse().matrix, tol=1e-4)
    term = desc.bracket_coords(rtd, desc.Ad(g_t, xi_path(t)).coords)
    rhs = (desc.Ad_matrix(g_t) @ nabla_xi[..., None])[..., 0] + term
    return _norm(lhs - rhs)


def horizontal_product_rule_check(nu, x, g, h, u, delta_h: AlgebraElement):
    """Finite-difference residual of the product rule for horizontal lifts:
    pushing (Hor_g(u), U_h) through the fiber product, by `product_velocity`,
    lands on Hor_{gh}(u) plus the left-translated vertical part Ad_g nu_h of
    U_h, all right-trivialized at gh.  One residual per row of stacked points."""
    desc = nu.bundle.fiber
    lhs = product_velocity(desc, g, nu.horizontal_delta(x, g, u).coords, h, delta_h.coords, 1e-5)
    nu_h = nu.connection_form(x, h, u, delta_h)
    return _norm(lhs - nu.horizontal_delta(x, g @ h, u).coords - desc.Ad(g, nu_h).coords)
