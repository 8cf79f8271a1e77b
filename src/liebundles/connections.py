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

from .bundles import LieGroupBundle, SectionJet
from .calculus import AlgebraOneForm, BaseCurve, central_difference
from .groups import AlgebraElement, GroupElement
from .integrators import integrate_linear, integrate_stack

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
    (x, u) and returns the map from a (..., m, m) array of fiber matrices to
    the (..., dim) coordinates of h.  It also takes a batch of points: x and u
    of shape (R, n) give the map from an (R, m, m) stack, row r at
    (x[r], u[r]), to (R, dim).  ``base_form`` is the coefficient 1-form A of a
    connection built by `from_base_form`; `AlgebraConnection.generator` reads
    its closed form from A.
    """

    def __init__(self, bundle: LieGroupBundle, lift_map, base_form=None):
        self.bundle = bundle
        self._lift_map = lift_map
        self.base_form = base_form

    @classmethod
    def from_base_form(cls, bundle: LieGroupBundle, form: AlgebraOneForm):
        desc = bundle.fiber

        def lift_map(x, u):
            a = (u[..., None, :] @ form.coefficient_array(x))[..., 0, :]
            return lambda fibers: (desc.Ad_matrix(fibers) @ a[..., None])[..., 0] - a

        return cls(bundle, lift_map, base_form=form)

    @classmethod
    def trivial(cls, bundle: LieGroupBundle):
        dim = bundle.fiber.dim

        def lift_map(x, u):
            lead = np.shape(x)[:-1]
            return lambda fibers: np.zeros(np.broadcast_shapes(fibers.shape[:-2], lead) + (dim,))

        return cls(bundle, lift_map)

    # -- pointwise maps ----------------------------------------------------

    def horizontal_delta(self, x, g: GroupElement, u) -> AlgebraElement:
        return self.bundle.fiber.algebra(self.lift_map(x, u)(g.matrix))

    def lift_map(self, x, u):
        """The map from fiber matrices (..., m, m) to the coordinates
        (..., dim) of h(x, g, u) at fixed (x, u)."""
        return self._lift_map(np.asarray(x, float), np.asarray(u, float))

    def connection_form(self, x, g: GroupElement, u, delta: AlgebraElement) -> AlgebraElement:
        """Algebra-valued connection form: delta minus the horizontal part."""
        h = self.horizontal_delta(x, g, u)
        return g.descriptor.algebra(delta.coords - h.coords)

    def jet_section(self, x, g: GroupElement, n=None) -> SectionJet:
        """Jet of the horizontal section through g: derivative rows h(x, g, e_mu)."""
        x = np.asarray(x, dtype=float)
        n = self.bundle.base.dim if n is None else n
        rows = [self.horizontal_delta(x, g, e).coords for e in np.eye(n)]
        return SectionJet(x, g, np.vstack(rows))


def validate_group_connection(nu, rng, samples=100):
    """Worst residuals of the unit-kernel and cocycle laws plus the jet
    formulation on random samples.

    The jet formulation multiplies jets of horizontal sections through g and
    g' (value gh', derivative delta_g + Ad_g delta_g') and compares against
    the horizontal jet through g g'.
    """
    desc = nu.bundle.fiber
    chart = nu.bundle.base
    unit_worst = 0.0
    cocycle_worst = 0.0
    jet_worst = 0.0
    for _ in range(samples):
        x = chart.sample(rng)
        u = rng.standard_normal(chart.dim)
        g = desc.random_element(rng)
        gp = desc.random_element(rng)
        unit_worst = max(
            unit_worst, np.linalg.norm(nu.horizontal_delta(x, desc.identity(), u).coords)
        )
        lhs = nu.horizontal_delta(x, g @ gp, u).coords
        rhs = (
            nu.horizontal_delta(x, g, u).coords
            + desc.Ad_matrix(g) @ nu.horizontal_delta(x, gp, u).coords
        )
        cocycle_worst = max(cocycle_worst, float(np.linalg.norm(lhs - rhs)))
        jg = nu.jet_section(x, g)
        jgp = nu.jet_section(x, gp)
        prod_deriv = jg.deriv + (desc.Ad_matrix(g) @ jgp.deriv.T).T
        jet = nu.jet_section(x, g @ gp)
        jet_worst = max(jet_worst, float(np.max(np.abs(prod_deriv - jet.deriv))))
    return {
        "unit_kernel": float(unit_worst),
        "cocycle": float(cocycle_worst),
        "jet_multiplicativity": float(jet_worst),
    }


def transport_group(
    nu: LieGroupBundleConnection,
    curve: BaseCurve,
    g0,
    step=1e-2,
    with_error_estimate=False,
):
    """Parallel transport along the curve: integrate the horizontal lift.

    ``g0`` is one GroupElement, giving one TransportResult, or a sequence of
    them, integrated as the rows of one stack and giving a list of
    TransportResult in the same order.  A GroupElement holding an (R, m, m)
    stack gives one TransportResult per row; on a family of R curves
    (position of shape (R, n)) row r rides curve r.
    """
    if isinstance(g0, GroupElement):
        fibers = g0.matrix
    else:
        fibers = np.stack([g.matrix for g in g0])

    def field(t):
        return nu.lift_map(curve.position(t), curve.velocity(t))

    return integrate_stack(field, nu.bundle.fiber, fibers, (curve.a, curve.b), step,
                           with_error_estimate)


def _rows(mats):
    """k fibers, each one (m, m) matrix or a (C, m, m) stack with one fiber per
    curve of a family, as the rows of one (k C, m, m) stack: row j C + c is
    fiber j on curve c, the layout of ``curve.repeat(k)``."""
    return np.concatenate([np.reshape(m, (-1,) + np.shape(m)[-2:]) for m in mats])


def _transport_rows(nu, curve, mats, step):
    """Endpoint matrices of k fibers transported along a curve or a family of
    curves as the rows of one stack, each shaped like its fiber (see `_rows`)."""
    results = transport_group(nu, curve.repeat(len(mats)),
                              GroupElement(_rows(mats), nu.bundle.fiber, check=False), step)
    ends = np.stack([r.element.matrix for r in results])
    return list(ends.reshape((len(mats),) + np.shape(mats[0])))


def _residual_norm(diff, point_ndim):
    """Norm of a residual: a float for a lone curve, or one per curve when
    ``diff`` has a leading family axis on top of ``point_ndim`` axes."""
    if diff.ndim == point_ndim:
        return float(np.linalg.norm(diff))
    return np.linalg.norm(diff.reshape(len(diff), -1), axis=1)


def transport_multiplicativity_check(nu, curve, g, h, step=1e-2):
    """|| transport(gh) - transport(g) transport(h) ||, with g, h and gh
    transported as independent rows of one stack.

    On a family of C curves g and h hold one (C, m, m) fiber per curve and
    the result is one residual per curve; a lone curve gives a float.
    """
    tg, th, tgh = _transport_rows(nu, curve, [g.matrix, h.matrix, (g @ h).matrix], step)
    return _residual_norm(tgh - tg @ th, 2)


def transport_unit_inverse_check(nu, curve, g, step=1e-2):
    """Residuals of transporting the unit and of the inverse law, one pair of
    floats for a lone curve or of per-curve arrays for a family (g then holds
    one fiber per curve)."""
    eye = np.eye(nu.bundle.fiber.matrix_dim)
    t1, tg, tginv = _transport_rows(
        nu, curve, [np.broadcast_to(eye, g.matrix.shape), g.matrix, g.inverse().matrix], step)
    return _residual_norm(t1 - eye, 2), _residual_norm(tginv - np.linalg.inv(tg), 2)


class AlgebraConnection:
    """Linear connection on the algebra bundle induced by a group connection.

    ``generator(x, u)`` is the matrix of the transport ODE xi' = K xi on
    coordinates, or an (R, dim, dim) stack for x and u of shape (R, n); the
    covariant derivative of a section is then nabla_u xi = D xi(u) - K(x, u) xi.
    """

    def __init__(self, nu: LieGroupBundleConnection):
        self.nu = nu
        self.descriptor = nu.bundle.fiber

    def generator(self, x, u) -> np.ndarray:
        desc = self.descriptor
        if self.nu.base_form is not None:
            a = self.nu.base_form(x, u)
            return -desc.ad_matrix(a.coords)
        # linearize the cocycle in the fiber around the identity
        lift = self.nu.lift_map(x, u)
        cols = [central_difference(lambda s: lift(desc.exp(desc.algebra(s * e)).matrix), 1e-6)
                for e in np.eye(desc.dim)]
        return np.stack(cols, axis=-1)


def _algebra_flow(nu, curve, columns, step):
    """Linear transport of coordinate columns (a (d, k) array, or (C, d, k)
    with k columns per curve of a family) by the transport ODE with generator
    K(x(t), x'(t))."""
    conn = AlgebraConnection(nu)

    def k_matrix(t):
        return conn.generator(curve.position(t), curve.velocity(t))

    return integrate_linear(k_matrix, columns, (curve.a, curve.b), step)


def algebra_transport(nu, curve, xi: AlgebraElement, step=1e-2) -> AlgebraElement:
    """Induced linear transport of xi along the curve: the linear ODE with
    generator K(x(t), x'(t)).  `algebra_transport_fd` is the independent
    reference path.  On a family of C curves xi and the result hold one
    (C, dim) row per curve.
    """
    return nu.bundle.fiber.algebra(_algebra_flow(nu, curve, xi.coords[..., None], step)[..., 0])


def algebra_transport_fd(nu, curve, xi: AlgebraElement, eps, step=1e-2) -> np.ndarray:
    """Central difference at 0 of eps -> log transport_group(exp(eps xi)), with
    exp(eps xi) and exp(-eps xi) transported as rows of one stack.

    On a family of C curves xi holds one (C, dim) row per curve and ``eps``
    may hold one step per curve; the result has the shape of ``xi.coords``.
    """
    desc = nu.bundle.fiber
    eps = np.asarray(eps, dtype=float)[..., None]
    ends = iter(_transport_rows(
        nu, curve, [desc.exp(desc.algebra(s * xi.coords)).matrix for s in (eps, -eps)], step))
    # both ends come from the one stack above; central_difference asks for +eps first
    return central_difference(lambda s: desc.log_coords(next(ends)), eps)


def algebra_transport_linearity_check(nu, curve, xi, eta, a, b, step=1e-2):
    """|| T(a xi + b eta) - a T(xi) - b T(eta) || for the algebra transport T.

    On a family of C curves xi and eta hold (C, dim) stacks and a, b one
    coefficient per curve; the result is one residual per curve.
    """
    a, b = np.asarray(a, float)[..., None], np.asarray(b, float)[..., None]
    combo = a * xi.coords + b * eta.coords
    t_combo, t_xi, t_eta = np.moveaxis(_algebra_flow(
        nu, curve, np.stack([combo, xi.coords, eta.coords], axis=-1), step), -1, 0)
    return _residual_norm(t_combo - a * t_xi - b * t_eta, 1)


def ad_compatibility_check(nu, curve, g, xi, step=1e-2):
    """|| transport(Ad_g xi) - Ad_{transport(g)}(transport(xi)) ||, one
    residual per curve on a family (g and xi then hold one row per curve)."""
    desc = nu.bundle.fiber
    lhs, txi = np.moveaxis(_algebra_flow(
        nu, curve, np.stack([desc.Ad(g, xi).coords, xi.coords], axis=-1), step), -1, 0)
    (tg,) = _transport_rows(nu, curve, [g.matrix], step)
    return _residual_norm(lhs - desc.Ad(GroupElement(tg, desc, check=False),
                                        desc.algebra(txi)).coords, 1)


def _restricted_curve(curve, t_lo, t_hi):
    return BaseCurve(t_lo, t_hi, curve.position, curve.velocity, label=curve.label)


def _covariant_group_derivative(nu, curve, g_path, t, ds, step):
    """nabla g(t)/dt as d/ds of pulling g(t+s) back to x(t), central differences."""
    desc = nu.bundle.fiber

    def pulled(s):
        if s > 0:
            seg = _restricted_curve(curve, t, t + s)
            return _reverse_transport(nu, seg, g_path(t + s), step).matrix
        seg = _restricted_curve(curve, t + s, t)
        return transport_group(nu, seg, g_path(t + s), step).element.matrix

    return central_difference(pulled, ds)


def _reverse_transport(nu, seg, g_end, step):
    """Transport from seg.b back to seg.a by reparametrizing the curve."""
    a, b = seg.a, seg.b

    def pos(t):
        return seg.position(a + b - t)

    def vel(t):
        return -np.asarray(seg.velocity(a + b - t))

    rev = BaseCurve(a, b, pos, vel, label=seg.label + "-rev")
    return transport_group(nu, rev, g_end, step).element


def covariant_derivative_bracket_check(nu, curve, g_path, xi_path, t) -> float:
    """Residual of the product rule tying nabla(Ad_g xi) to Ad_g nabla xi plus
    the bracket with the right-trivialized covariant velocity of g.

    All derivatives by central differences at step 1e-4 in t; transports by
    the group integrator at step 1e-3.
    """
    desc = nu.bundle.fiber
    conn = AlgebraConnection(nu)
    ds = 1e-4

    def algebra_section(tt):
        return desc.Ad(g_path(tt), xi_path(tt)).coords

    x_t = curve.position(t)
    u_t = curve.velocity(t)
    k_t = conn.generator(x_t, u_t)

    def covariant_of(section):
        dsec = central_difference(lambda s: np.asarray(section(t + s)), ds)
        return dsec - k_t @ np.asarray(section(t))

    lhs = covariant_of(algebra_section)

    nabla_xi = covariant_of(lambda tt: xi_path(tt).coords)
    dg = _covariant_group_derivative(nu, curve, g_path, t, ds, 1e-3)
    g_t = g_path(t)
    rtd = desc.matrix_coords(dg @ np.linalg.inv(g_t.matrix), tol=1e-4)
    term = desc.bracket_coords(rtd, desc.Ad(g_t, xi_path(t)).coords)
    rhs = desc.Ad_matrix(g_t) @ nabla_xi + term
    return float(np.linalg.norm(lhs - rhs))


def horizontal_product_rule_check(nu, x, g, h, u, delta_h: AlgebraElement) -> float:
    """Finite-difference residual of the product rule for horizontal lifts:
    pushing (Hor_g(u), U_h) through the fiber product lands on Hor_{gh}(u)
    plus the left-translated vertical part of U_h."""
    desc = nu.bundle.fiber
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)

    def product_curve(s):
        g_s = desc.exp(desc.algebra(s * nu.horizontal_delta(x, g, u).coords)) @ g
        h_s = desc.exp(desc.algebra(s * delta_h.coords)) @ h
        return (g_s @ h_s).matrix

    lhs = central_difference(product_curve, 1e-5)

    gh = g @ h
    hor_gh = nu.horizontal_delta(x, gh, u).coords
    nu_h = nu.connection_form(x, h, u, delta_h).coords
    # left translation of the vertical part: g . (nu_h h) expressed at gh
    rhs = desc.algebra_matrix(hor_gh) @ gh.matrix + g.matrix @ desc.algebra_matrix(nu_h) @ h.matrix
    return float(np.linalg.norm(lhs - rhs))
