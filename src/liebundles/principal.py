"""Equivariant connections on trivialized group-torsor total spaces.

A connection is an algebra-valued 1-form omega on the total space satisfying
complementarity (it reproduces generators) and adjoint equivariance with a
correction term coming from an associated group-bundle connection nu.  A form
is one matrix map.  The connections over nu form an affine space modelled on
Ad-type algebra 1-forms, and `GeneralizedPrincipalConnection.over` builds the
one of each pair (nu, beta): omega(x, h)(u, delta) =
Ad_{h^-1}(delta - c_nu(x, h, u) - beta(x, u)), with c_nu the lift cocycle of
nu.  The single-chart connection is (trivial nu, minus its base form), and
the two-chart builder glues two presentations into one pair.

Curvature is evaluated two independent ways: minus omega of the bracket of
horizontalized fields, and the exterior derivative of omega on constant
extensions of the horizontal lifts; both run in an exponential fiber chart
centered at the evaluation point so the finite differences act on flat
coordinates.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from dataclasses import dataclass
from operator import attrgetter
from typing import Optional

import numpy as np

from .bundles import FiberedAction, Tangent, TotalPoint, product_velocity
from .calculus import (AlgebraOneForm, BaseCurve, FiberMap, Normal, Polynomial,
                       directional_derivative, numerical_bracket)
from .connections import LieGroupBundleConnection
from .errors import ConstructionError, UsageError
from .groups import AlgebraElement, GroupElement, _dexp_operator, _frobenius, _norm
from .integrators import Transport, _grouped, integrate_stack, planned

__all__ = [
    "WeightRamp",
    "form_matrix",
    "GeneralizedPrincipalConnection",
    "build_canonical_connection",
    "build_two_chart_connection",
    "validate_principal_connection",
    "validate_tensorial_form",
    "transport_total",
    "transport_compatibility_check",
    "jet_equivariance_check",
    "horizontal_transform_check",
    "connection_difference",
    "CurvatureValue",
    "curvature",
    "Curvature",
    "reduced_curvature_residual",
    "equivariant_product_connection_check",
]


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------


class WeightRamp:
    """Cosine ramp in one base coordinate: 1 below lo, 0 above hi.  Points
    (..., n) give one weight per point; a lone point, a batch without leading
    axes, gives a numpy float."""

    def __init__(self, lo, hi, axis=0):
        if not hi > lo:
            raise UsageError("ramp needs lo < hi")
        self.lo, self.hi, self.axis = float(lo), float(hi), int(axis)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        s = np.clip((x[..., self.axis] - self.lo) / (self.hi - self.lo), 0.0, 1.0)
        return 0.5 * (1.0 + np.cos(np.pi * s))


# ---------------------------------------------------------------------------
# form matrices
# ---------------------------------------------------------------------------


def form_matrix(u_block, fiber_block):
    """[u_block | fiber_block] along the last axis: a form's (..., dim, n + dim)
    matrix from its two blocks, the one with more leading (stack) axes setting
    the stack shape and the other repeated along it."""
    lead = max(u_block.shape[:-2], fiber_block.shape[:-2], key=len)
    n = u_block.shape[-1]
    out = np.empty(lead + (u_block.shape[-2], n + fiber_block.shape[-1]))
    out[..., :n] = u_block
    out[..., n:] = fiber_block
    return out


def _local_matrix(descriptor, fibers, block, rate):
    """Matrix of a form at fibers h: Ad_{h^{-1}} block + [R | 0], from its
    block [B | I] and rate R."""
    out = descriptor.Ad_matrix(descriptor.inverse(fibers)) @ block
    out[..., : rate.shape[-1]] += rate
    return out


# ---------------------------------------------------------------------------
# the connection
# ---------------------------------------------------------------------------


class GeneralizedPrincipalConnection:
    """Algebra-valued 1-form on the total space given by its matrix map.

    ``form(q)``, stored as ``matrix_map``, is the `FiberMap` from fibers h to
    the (dim, n + dim) matrix of the form at (q, h): its first n columns act
    on the base velocity u, its last dim columns on the fiber velocity delta.
    At a batch of points (q of shape (..., n)) it maps (..., m, m) fibers to
    an (..., dim, n + dim) stack.  A form over no nu (nu None) is tensorial,
    horizontal and adjoint-equivariant, as the difference of two connections
    over one nu is.
    """

    def __init__(self, action: FiberedAction, nu: Optional[LieGroupBundleConnection], form):
        self.action = action
        self.nu = nu
        self.matrix_map = form
        self.descriptor = action.space.fiber
        self.n = action.space.quotient.dim

    @classmethod
    def over(cls, action: FiberedAction, nu: LieGroupBundleConnection, beta: AlgebraOneForm):
        """The connection over nu shifted by the algebra 1-form beta:
        omega(x, h)(u, delta) = Ad_{h^{-1}}(delta - c_nu(x, h, u) - beta(x, u)),
        with c_nu = Ad_h A - A the lift cocycle of nu's base form A.  As a
        matrix: Ad_{h^{-1}} [A - beta | I] + [-A | 0].  A nu without a base
        form is a usage error."""
        if nu.base_form is None:
            raise UsageError("a connection over nu needs nu's base form")
        desc = action.space.fiber
        eye = np.eye(desc.dim)

        def form(q) -> FiberMap:
            a = np.swapaxes(nu.base_form.coefficient_array(q), -1, -2)
            b = np.swapaxes(beta.coefficient_array(q), -1, -2)
            return FiberMap(functools.partial(_local_matrix, desc), form_matrix(a - b, eye), -a)

        return cls(action, nu, form)

    def matrix(self, y: TotalPoint) -> np.ndarray:
        """Matrix of the form at y, shape (dim, n + dim), or
        (B, dim, n + dim) when y.fiber holds a (B, m, m) stack."""
        return self.matrix_map(y.q)(y.fiber.matrix)

    def value(self, y: TotalPoint, tangent: Tangent) -> AlgebraElement:
        """The form on a tangent at y, or one row per point of a stack."""
        return self.descriptor.algebra(_values(self.matrix(y), tangent.u, tangent.delta.coords))

    def vertical_operator(self, y: TotalPoint) -> np.ndarray:
        """Matrix of delta -> omega(y, (0, delta)) on algebra coordinates."""
        return self.matrix(y)[..., self.n :]

    def horizontal_deltas(self, y: TotalPoint, u_columns) -> np.ndarray:
        """Fiber velocities annihilated by the form, from one solve.

        A base vector u gives shape (dim,), or (B, dim) when y.fiber holds a
        stack; at a batch of points (y.q of shape (R, n)) ``u_columns`` holds
        one base vector per point, (R, n), and gives (R, dim).  With one axis
        more than y.q it holds (n, k) base vectors per point and gives (dim, k)
        per point: (R, n, k) at a batch gives (R, dim, k).
        """
        return self.horizontal_map(y.q, u_columns)(y.fiber.matrix)

    def horizontal_map(self, q, u_columns) -> FiberMap:
        """`horizontal_deltas` at base points q as a `FiberMap`."""
        u_columns = np.asarray(u_columns, dtype=float)
        column = u_columns.ndim == np.ndim(q)
        return FiberMap(functools.partial(self._solve, column), self.matrix_map(q),
                        u_columns[..., None] if column else u_columns)

    def _solve(self, column, fibers, matrix, u_columns):
        mat = matrix(fibers)
        try:
            out = np.linalg.solve(mat[..., self.n :], -mat[..., : self.n] @ u_columns)
        except np.linalg.LinAlgError as exc:
            raise ConstructionError("degenerate connection: vertical operator singular") from exc
        return out[..., 0] if column else out

    def horizontal_lift(self, y: TotalPoint, u) -> Tangent:
        """Unique tangent over u annihilated by the form."""
        u = np.asarray(u, dtype=float)
        return Tangent(u, self.descriptor.algebra(self.horizontal_deltas(y, u)))


def build_canonical_connection(action: FiberedAction, base_form: Optional[AlgebraOneForm] = None):
    """Single-chart connection: the pair (trivial nu, -A), whose form is
    Ad_{h^{-1}}(A(u) + delta) for the base form A, or the pair (trivial nu,
    its zero form), the fiber left-Maurer-Cartan form, without one."""
    nu = LieGroupBundleConnection.trivial(action.bundle)
    beta = nu.base_form if base_form is None else AlgebraOneForm(
        action.space.fiber, lambda x: -base_form.coefficient_array(x))
    return GeneralizedPrincipalConnection.over(action, nu, beta), nu


def build_two_chart_connection(
    action: FiberedAction,
    sigma_gen: AlgebraElement,
    p: Polynomial,
    tau_gen: AlgebraElement,
    r: Polynomial,
    ramp: WeightRamp,
):
    """Two overlapping presentations glued with the cosine weights ramp and
    w_b = 1 - ramp, as one pair (nu, beta).

    The first presentation is the reference one, the second the reference
    twisted by exp(p(x) Z_sigma)-conjugation and an exp(r(x) Z_tau) section
    change, with S, T the right-trivialized rates of sigma and tau and
    t = tau(x).  The two local forms are the pairs (trivial nu, 0) and
    (base-form nu of -S, T + Ad_t S - S).  Lifts are linear in nu and the
    weights sum to one, so the glued form is the pair (nu_glued, beta):
    nu_glued is the base-form connection of A = -w_b S, and
    beta = w_b (T + Ad_t S - S).  A pair is a connection over its nu for any
    beta, so the weights need no partition-of-unity check.
    """
    desc = action.space.fiber
    dp, dr = ([f.partial(mu) for mu in range(f.dim)] for f in (p, r))

    def rate(gen, partials, x):
        """(..., dim, n) right-trivialized rate of exp(f(x) gen), from f's partials."""
        return gen.coords[:, None] * np.stack([d(x) for d in partials], -1)[..., None, :]

    def w_b(x):
        return np.asarray(1.0 - ramp(x))[..., None, None]

    def nu_coefficients(x):
        return np.swapaxes(-w_b(x) * rate(sigma_gen, dp, x), -1, -2)

    def beta_coefficients(x):
        s_rate, t_rate = rate(sigma_gen, dp, x), rate(tau_gen, dr, x)
        t = desc.retract(desc.exp_coords(np.multiply.outer(r(x), tau_gen.coords)))
        ad_t = desc.Ad_matrix(t)
        return np.swapaxes(w_b(x) * (t_rate + ad_t @ s_rate - s_rate), -1, -2)

    nu = LieGroupBundleConnection.from_base_form(action.bundle,
                                                 AlgebraOneForm(desc, nu_coefficients))
    beta = AlgebraOneForm(desc, beta_coefficients)
    return GeneralizedPrincipalConnection.over(action, nu, beta), nu


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def _values(matrices, u, delta):
    """Rows of a form's (S, d, n + d) matrices on the tangents (u, delta)."""
    return (matrices @ np.concatenate([u, delta], axis=-1)[..., None])[..., 0]


def _form_laws(form, rng, samples):
    """The worst residuals of the two laws of an algebra-valued form, as two
    functions that each evaluate one law on one stack of random samples,
    drawn one at a time.  Over a group connection form.nu: complementarity
    |form(generator of xi) - xi| and equivariance form(y.g, dPhi) =
    Ad_{g^-1}(form(y) + nu form).  Over none: horizontality |form(generator
    of xi)| and plain adjoint equivariance."""
    action, nu = form.action, form.nu
    desc = action.space.fiber
    c = desc.coords_field
    y, xi, fg, u, dy, dg = action.space.random_points(
        rng, samples, c, c, Normal((action.space.quotient.dim,)), c, c)

    def vertical():
        vert = form.value(y, action.generator(y, desc.algebra(xi))).coords
        return float(np.max(_norm(vert - xi if nu is not None else vert)))

    def equivariance():
        g = desc.exp(desc.algebra(fg))
        t_y, t_g = Tangent(u, desc.algebra(dy)), Tangent(u, desc.algebra(dg))
        lhs = form.value(action.act(y, g), action.differential(y, g, t_y, t_g)).coords
        correction = dg - nu.lift_map(y.q, u)(g.matrix) if nu is not None else 0.0
        rhs = form.value(y, t_y).coords + correction
        rhs = (desc.Ad_matrix(g.inverse()) @ rhs[..., None])[..., 0]
        return float(np.max(_norm(lhs - rhs)))

    return vertical, equivariance


def validate_principal_connection(omega, rng, samples=200):
    """Worst residuals of complementarity and of adjoint equivariance with the
    omega.nu correction on random samples."""
    comp, equi = _form_laws(omega, rng, samples)
    return {"complementarity": comp(), "ad_equivariance": equi()}


def validate_tensorial_form(form, rng, samples=100):
    """Worst residuals of horizontality and of plain adjoint equivariance of a
    form over no nu on random samples."""
    horiz, equi = _form_laws(form, rng, samples)
    return {"horizontality": horiz(), "ad_equivariance": equi()}


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------


def transport_total(omega, curve: BaseCurve, y0: TotalPoint, step=1e-2, with_error_estimate=False):
    """Transport over a quotient curve by integrating the horizontal lift.

    ``y0.fiber`` may hold an (R, m, m) stack, whose rows are transported as
    one stack; on a family of R curves row r rides curve r.  Returns the end
    point, holding every row's endpoint, and the one TransportResult of
    `integrate_stack`; its base schedule is the form's horizontal map at
    every stage point.
    """
    result = integrate_stack(
        lambda times: omega.horizontal_map(curve.position(times), curve.velocity(times)),
        omega.descriptor, y0.fiber.matrix, (curve.a, curve.b), step, with_error_estimate)
    return TotalPoint(curve.position(curve.b), result.element), result


@planned
def transport_compatibility_check(omega, curve, y, g, step=1e-2):
    """Transport of y.g against (transport of y).(nu-transport of g).  The
    total-space rows y.g and y, by the form's horizontal map, and the group
    rows g, by nu's lift map, are independent rows of one integration.

    On a family of C curves y.q is (C, n), y.fiber and g hold one (C, m, m)
    fiber per curve, and the result is one residual per curve; a lone curve
    gives a numpy float.
    """
    action, desc = omega.action, omega.descriptor
    (end_yg, end_y), (end_g,) = yield [
        Transport(omega.horizontal_map, curve, [action.act(y, g).fiber, y.fiber], step),
        Transport(omega.nu.lift_map, curve, [g], step)]
    recombined = action.act(TotalPoint(curve.position(curve.b), GroupElement(end_y, desc, check=False)),
                            GroupElement(end_g, desc, check=False))
    return _frobenius(end_yg - recombined.fiber.matrix)


def jet_equivariance_check(omega, y, g):
    """Largest entry of the horizontal lifts of the n base directions at y.g
    minus the action differential of the paired lifts (omega-horizontal at y,
    nu-horizontal at g), each (point, direction) pair one row of a stacked
    tangent pair; one value per point of a stack.  The lifts at each point
    come from one solve with n right-hand sides."""
    action, desc, n = omega.action, omega.descriptor, omega.n
    lead = np.shape(y.q)[:-1]
    eye = np.broadcast_to(np.eye(n), lead + (n, n))

    def pairs(a):
        """One row per (point, direction), point-major."""
        return np.repeat(np.reshape(a, (-1,) + np.shape(a)[len(lead):]), n, axis=0)

    def lifts(at):
        """The (..., n, dim) horizontal lifts of the n base directions."""
        return np.swapaxes(omega.horizontal_deltas(at, eye), -1, -2)

    u, g_rows = eye.reshape(-1, n), GroupElement(pairs(g.matrix), desc, check=False)
    t_y = Tangent(u, desc.algebra(lifts(y).reshape(-1, desc.dim)))
    t_g = Tangent(u, omega.nu.horizontal_delta(pairs(y.q), g_rows, u))
    y_rows = TotalPoint(pairs(y.q), GroupElement(pairs(y.fiber.matrix), desc, check=False))
    pushed = action.differential(y_rows, g_rows, t_y, t_g).delta.coords
    target = lifts(action.act(y, g))
    return np.max(np.abs(pushed.reshape(target.shape) - target), axis=(-2, -1))


def horizontal_transform_check(omega, y, g, u, delta_g: AlgebraElement):
    """Finite-difference residual of pushing a horizontal lift through the
    action, by `product_velocity`: the image is the horizontal lift at y.g
    plus the generator of the inverse-adjusted vertical part of the group
    tangent.  One residual per row of stacked points."""
    action, desc = omega.action, omega.descriptor
    lhs = product_velocity(desc, y.fiber, omega.horizontal_deltas(y, u), g, delta_g.coords, 1e-5)
    yg = action.act(y, g)
    zeta = desc.Ad(g.inverse(), omega.nu.connection_form(y.q, g, u, delta_g))
    return _norm(lhs - (omega.horizontal_deltas(yg, u) + action.generator(yg, zeta).delta.coords))


# ---------------------------------------------------------------------------
# the affine family
# ---------------------------------------------------------------------------


def connection_difference(omega1, omega2) -> GeneralizedPrincipalConnection:
    """Difference of two connections over the same nu, fiber by fiber: a form
    over no nu, horizontal and adjoint-equivariant, which
    `validate_tensorial_form` measures."""
    if omega1.action is not omega2.action:
        raise UsageError("connection difference requires a common total space action")
    return GeneralizedPrincipalConnection(omega1.action, None, lambda q: FiberMap(
        lambda fibers, m1, m2: m1(fibers) - m2(fibers), omega1.matrix_map(q), omega2.matrix_map(q)))


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurvatureValue:
    value: AlgebraElement
    exterior_value: AlgebraElement

    @property
    def gap(self):  # a float, or one per row of a stack
        return _norm(self.value.coords - self.exterior_value.coords)


def curvature(omega, y: TotalPoint, u1, u2, h=None):
    """Curvature of the connection at y on base directions u1, u2.

    Primary path: minus the form on the numerical bracket of the horizontal
    lift fields of the (constant) base directions.  Cross-check path: the
    exterior derivative of the form on constant extensions of the horizontal
    lifts at y.  A covariant correction would multiply the form on those
    lifts, which is zero, so there is none.  Both run in the exponential fiber
    chart at y; ``gap`` is the norm of their difference.

    A stack of points (y.q of shape (B, n), y.fiber of (B, m, m)) with (B, n)
    directions gives (B, dim) values and exterior values and (B,) gaps, each
    row equal to that row alone: the finite differences step every row by its
    own size.  ``h`` is one step for every row or one per row, a NaN row
    taking the default step it takes alone.
    """
    desc, n, h0 = omega.descriptor, omega.n, y.fiber
    u1, u2 = np.asarray(u1, dtype=float), np.asarray(u2, dtype=float)

    def point(z):
        return TotalPoint(z[..., :n], desc.exp(desc.algebra(z[..., n:])) @ h0)

    def field(u):
        def f(z):
            delta = omega.horizontal_deltas(point(z), u)
            op = _dexp_operator(desc, z[..., n:])
            return np.concatenate([u, np.linalg.solve(op, delta[..., None])[..., 0]], axis=-1)

        return f

    z0 = np.concatenate([y.q, np.zeros(np.shape(y.q)[:-1] + (desc.dim,))], axis=-1)
    br = numerical_bracket(field(u1), field(u2), z0, h)
    bracket_tangent = Tangent(br[..., :n], desc.algebra(br[..., n:]))
    primary = -omega.value(y, bracket_tangent).coords

    # exterior path on constant field extensions (their bracket vanishes)
    w1, w2 = (np.concatenate([u, omega.horizontal_deltas(y, u)], axis=-1) for u in (u1, u2))

    def omega_along(wvec):
        def f(z):
            op = _dexp_operator(desc, z[..., n:])
            delta = desc.algebra((op @ wvec[..., n:, None])[..., 0])
            return omega.value(point(z), Tangent(wvec[..., :n], delta)).coords

        return f

    exterior = (directional_derivative(omega_along(w2), z0, w1, h)
                - directional_derivative(omega_along(w1), z0, w2, h))
    return CurvatureValue(value=desc.algebra(primary), exterior_value=desc.algebra(exterior))


class Curvature(namedtuple("Curvature", "omega y u1 u2 h", defaults=(None,))):
    """A request for `curvature(omega, y, u1, u2, h)`, answered with its
    CurvatureValue: a round's requests on one form share one `curvature`
    call on their concatenated rows, each request's rows at its own step."""

    @staticmethod
    def evaluate(requests):
        return _grouped(requests, attrgetter("omega"), _curvature_rows)


def _curvature_rows(omega, requests):
    """Answers on omega from one call of `curvature`, looked up as this
    module's global at call time, so that a tracer that rebinds it sees it."""
    desc, leads = omega.descriptor, [np.shape(r.y.q)[:-1] for r in requests]
    sizes = [int(np.prod(lead)) for lead in leads]

    def rows(attr, k=1):  # each request's ``attr`` as rows of k axes, concatenated
        return np.concatenate([np.reshape(a, (-1,) + np.shape(a)[-k:])
                               for a in map(attrgetter(attr), requests)])

    y = TotalPoint(rows("y.q"), desc.element(rows("y.fiber.matrix", 2), check=False))
    h = np.repeat([np.nan if r.h is None else r.h for r in requests], sizes)
    out = curvature(omega, y, rows("u1"), rows("u2"), h)
    parts = [np.split(a.coords, np.cumsum(sizes)[:-1]) for a in (out.value, out.exterior_value)]
    return [CurvatureValue(*(desc.algebra(p.reshape(lead + (-1,))) for p in pair))
            for lead, pair in zip(leads, zip(*parts))]


@planned
def reduced_curvature_residual(omega, y, g, u1, u2):
    """Representative independence of the reduced curvature, a section of the
    adjoint bundle: |Ad_{g^{-1}} Omega_y - Omega_{y.g}|, with g solved from
    the two fibers as y.fiber^{-1} (y.g).fiber.  Omega_y and Omega_{y.g} are
    two requests of one round; a stack of points, with g and u1, u2 holding
    one row each, gives one residual per row."""
    yg = omega.action.act(y, g)
    at_y, at_yg = yield [Curvature(omega, y, u1, u2), Curvature(omega, yg, u1, u2)]
    solved = y.fiber.inverse() @ yg.fiber
    return _norm(omega.descriptor.Ad(solved.inverse(), at_y.value).coords - at_yg.value.coords)


def equivariant_product_connection_check(omega, y, g, t_y: Tangent, t_g: Tangent):
    """Equivariance of the paired vertical projector (omega-generator, nu-form)
    under (y, g) -> (y.g, g): the projected pair pushed through the action by
    `product_velocity` against the projector at y.g of the closed-form pushed
    pair.  The nu-form of the group tangent is the same on both sides.  One
    residual per row of stacked points."""
    action = omega.action
    yg = action.act(y, g)
    # rhs first: `differential` guards the shared base velocity
    rhs = action.generator(yg, omega.value(yg, action.differential(y, g, t_y, t_g))).delta.coords
    gen_y = action.generator(y, omega.value(y, t_y)).delta.coords
    nu_val = omega.nu.connection_form(y.q, g, t_y.u, t_g.delta).coords
    return _norm(product_velocity(omega.descriptor, y.fiber, gen_y, g, nu_val, 1e-6) - rhs)

