"""Equivariant connections on trivialized group-torsor total spaces.

A connection is an algebra-valued 1-form omega on the total space satisfying
complementarity (it reproduces generators) and adjoint equivariance with a
correction term coming from an associated group-bundle connection nu.  Forms
are assembled from weighted local pieces (partition-of-unity gluing); each
piece is the fiber left-Maurer-Cartan form of one trivializing presentation,
optionally shifted by a base 1-form.

Curvature is evaluated two independent ways: minus omega of the bracket of
horizontalized fields, and the covariant exterior derivative on constant
extensions; both run in an exponential fiber chart centered at the evaluation
point so the finite differences act on flat coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bundles import (
    AdjointBundlePoint,
    FiberedAction,
    SectionJet,
    Tangent,
    TotalPoint,
    adjoint_class_residual,
)
from .calculus import (
    AlgebraOneForm,
    BaseCurve,
    Polynomial,
    central_difference,
    directional_derivative,
    numerical_bracket,
)
from .connections import (
    AlgebraConnection,
    LieGroupBundleConnection,
    _residual_norm,
    _rows,
    _transport_rows,
    validate_group_connection,
)
from .errors import ConstructionError, UsageError, ValidationError
from .groups import AlgebraElement, GroupElement
from .integrators import integrate_stack

__all__ = [
    "WeightRamp",
    "constant_weight",
    "form_matrix",
    "canonical_local_form",
    "twisted_local_form",
    "twisted_cocycle",
    "GeneralizedPrincipalConnection",
    "build_canonical_connection",
    "build_two_chart_connection",
    "validate_principal_connection",
    "transport_total",
    "transport_compatibility_check",
    "jet_equivariance_check",
    "horizontal_transform_check",
    "TensorialAdjointForm",
    "connection_difference",
    "CurvatureValue",
    "curvature",
    "reduced_curvature_residual",
    "equivariant_product_connection_check",
    "necessity_check",
]


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------


class WeightRamp:
    """Cosine ramp in one base coordinate: 1 below lo, 0 above hi.  A batch
    of points (R, n) gives one weight per point."""

    def __init__(self, lo, hi, axis=0, invert=False):
        if not hi > lo:
            raise UsageError("ramp needs lo < hi")
        self.lo, self.hi, self.axis, self.invert = float(lo), float(hi), int(axis), invert

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        # a float for one point, as numpy calls on a lone scalar cost more
        if x.ndim == 1:
            s = min(max((float(x[self.axis]) - self.lo) / (self.hi - self.lo), 0.0), 1.0)
        else:
            s = np.clip((x[:, self.axis] - self.lo) / (self.hi - self.lo), 0.0, 1.0)
        w = 0.5 * (1.0 + np.cos(np.pi * s))
        return 1.0 - w if self.invert else w


def constant_weight(value=1.0):
    return lambda x: value


# ---------------------------------------------------------------------------
# local forms
# ---------------------------------------------------------------------------


def form_matrix(u_block, fiber_block):
    """[u_block | fiber_block] along the last axis: a piece's (..., dim, n + dim)
    matrix from its two blocks, the one with more leading (stack) axes setting
    the stack shape and the other repeated along it."""
    lead = max(u_block.shape[:-2], fiber_block.shape[:-2], key=len)
    n = u_block.shape[-1]
    out = np.empty(lead + (u_block.shape[-2], n + fiber_block.shape[-1]))
    out[..., :n] = u_block
    out[..., n:] = fiber_block
    return out


def canonical_local_form(descriptor, base_form: Optional[AlgebraOneForm] = None):
    """Fiber left-Maurer-Cartan form of the reference presentation.

    Its value on a tangent (u, delta) at fiber point h is
    Ad_{h^{-1}}(A(u) + delta), where A is the optional adjoint-twisted base
    1-form (zero by default); as a matrix, Ad_{h^{-1}} [A(x)^T | I].
    """

    def form(y: TotalPoint) -> np.ndarray:
        ad = descriptor.Ad_matrix(y.fiber.inverse())
        if base_form is None:
            return form_matrix(np.zeros((descriptor.dim, y.q.shape[-1])), ad)
        return form_matrix(ad @ np.swapaxes(base_form.coefficient_array(y.q), -1, -2), ad)

    return form


class _Twist:
    """Analytic presentation change: group-chart automorphism by exp(p(x) Z_sigma)
    conjugation together with a section change by exp(r(x) Z_tau)."""

    def __init__(self, descriptor, sigma_gen: AlgebraElement, p: Polynomial, tau_gen: AlgebraElement, r: Polynomial):
        self.descriptor = descriptor
        self.sigma_gen = sigma_gen
        self.tau_gen = tau_gen
        self.r = r
        self._dp = [p.partial(mu) for mu in range(p.dim)]
        self._dr = [r.partial(mu) for mu in range(r.dim)]

    def tau(self, x):
        """Matrix of tau at x, or an (R, m, m) stack at a batch of points."""
        desc = self.descriptor
        return desc.retract(desc.exp_coords(np.multiply.outer(self.r(x), self.tau_gen.coords)))

    def sigma_rate(self, x, u):
        """Right-trivialized derivative of sigma along u (exact: Z commutes)."""
        u = np.asarray(u, float)
        rate = sum(d(x) * u[..., mu] for mu, d in enumerate(self._dp))
        return np.multiply.outer(rate, self.sigma_gen.coords)

    def rates(self, x):
        """Right-trivialized rates of sigma and tau as (dim, n) matrices, or
        (R, dim, n) at a batch of points."""
        def rate(gen, partials):
            return gen.coords[:, None] * np.array([d(x) for d in partials]).T[..., None, :]

        return rate(self.sigma_gen, self._dp), rate(self.tau_gen, self._dr)


def twisted_local_form(descriptor, twist: _Twist):
    """Canonical form of the twisted presentation, expressed in reference data.

    The twisted fiber coordinate of y = (x, h) is m = s^{-1} t^{-1} h s with
    s = sigma(x), t = tau(x); its left-Maurer-Cartan value mapped back to
    reference algebra coordinates by Ad_s is Ad_{h^{-1}}(delta - T - Ad_t S) + S,
    with S, T the right-trivialized rates of sigma and tau.  As a matrix:
    Ad_{h^{-1}} [-T - Ad_t S | I] + [S | 0].
    """

    def form(y: TotalPoint) -> np.ndarray:
        s_rate, t_rate = twist.rates(y.q)
        ad_t = descriptor.Ad_matrix(twist.tau(y.q))
        out = descriptor.Ad_matrix(y.fiber.inverse()) @ form_matrix(
            -t_rate - ad_t @ s_rate, np.eye(descriptor.dim))
        out[..., : y.q.shape[-1]] += s_rate
        return out

    return form


def twisted_cocycle(descriptor, twist: _Twist):
    """Lift map (see `LieGroupBundleConnection`) of the connection
    that is trivial in the twisted group-bundle chart: h(x, g, u) = s - Ad_g s
    with s the automorphism rate."""

    def lift_map(x, u):
        s = twist.sigma_rate(x, u)
        return lambda fibers: s - (descriptor.Ad_matrix(fibers) @ s[..., None])[..., 0]

    return lift_map


# ---------------------------------------------------------------------------
# the connection
# ---------------------------------------------------------------------------


class GeneralizedPrincipalConnection:
    """Algebra-valued 1-form glued from weighted local pieces.

    ``pieces`` is a sequence of (weight, form) with weight a function of the
    base point and form(y) the (dim, n + dim) matrix of the piece at y: its
    first n columns act on the base velocity u, its last dim columns on the
    fiber velocity delta.  At a batch of points (y.q of shape (R, n), y.fiber
    an (R, m, m) stack) a weight returns one value per point and a form an
    (R, dim, n + dim) stack.
    """

    def __init__(self, action: FiberedAction, nu: LieGroupBundleConnection, pieces, label="omega"):
        self.action = action
        self.nu = nu
        self.pieces = list(pieces)
        self.label = label
        self.descriptor = action.space.fiber
        self.n = action.space.quotient.dim

    def matrix(self, y: TotalPoint) -> np.ndarray:
        """Weighted sum of the pieces' matrices at y, shape (dim, n + dim), or
        (B, dim, n + dim) when y.fiber holds a (B, m, m) stack.  A piece is
        summed when any of its weights is nonzero."""
        d = self.descriptor.dim
        lead = max(y.fiber.matrix.shape[:-2], np.shape(y.q)[:-1], key=len)
        total = np.zeros(lead + (d, self.n + d))
        for weight, form in self.pieces:
            w = np.asarray(weight(y.q))
            if np.count_nonzero(w):
                total = total + w[..., None, None] * form(y)
        return total

    def value(self, y: TotalPoint, tangent: Tangent) -> AlgebraElement:
        return self.descriptor.algebra(
            self.matrix(y) @ np.concatenate([tangent.u, tangent.delta.coords]))

    def vertical_operator(self, y: TotalPoint) -> np.ndarray:
        """Matrix of delta -> omega(y, (0, delta)) on algebra coordinates."""
        return self.matrix(y)[..., self.n :]

    def horizontal_deltas(self, y: TotalPoint, u_columns) -> np.ndarray:
        """Fiber velocities annihilated by the form, from one solve.

        A base vector u gives shape (dim,), or (B, dim) when y.fiber holds a
        stack; at a batch of points (y.q of shape (R, n)) ``u_columns`` holds
        one base vector per point, (R, n), and gives (R, dim); an (n, k) array
        of base vectors gives (dim, k) for one fiber.
        """
        mat = self.matrix(y)
        u_columns = np.asarray(u_columns, dtype=float)
        column = u_columns.ndim == 1 or np.ndim(y.q) == 2
        rhs = -mat[..., : self.n] @ (u_columns[..., None] if column else u_columns)
        try:
            out = np.linalg.solve(mat[..., self.n :], rhs)
        except np.linalg.LinAlgError as exc:
            raise ConstructionError("degenerate connection: vertical operator singular") from exc
        return out[..., 0] if column else out

    def horizontal_lift(self, y: TotalPoint, u) -> Tangent:
        """Unique tangent over u annihilated by the form."""
        u = np.asarray(u, dtype=float)
        return Tangent(u, self.descriptor.algebra(self.horizontal_deltas(y, u)))

    def horizontal_jet(self, y: TotalPoint) -> SectionJet:
        return SectionJet(y.q, y.fiber, self.horizontal_deltas(y, np.eye(self.n)).T)


def build_canonical_connection(action: FiberedAction, base_form: Optional[AlgebraOneForm] = None):
    """Single-chart connection: trivial nu plus the canonical fiber form."""
    desc = action.space.fiber
    nu = LieGroupBundleConnection.trivial(action.bundle)
    omega = GeneralizedPrincipalConnection(
        action, nu, [(constant_weight(1.0), canonical_local_form(desc, base_form))]
    )
    return omega, nu


def build_two_chart_connection(
    action: FiberedAction,
    sigma_gen: AlgebraElement,
    p: Polynomial,
    tau_gen: AlgebraElement,
    r: Polynomial,
    ramp: WeightRamp,
):
    """Two overlapping presentations glued with a cosine partition of unity.

    The first piece is the reference canonical form, the second the canonical
    form of the presentation twisted by exp(p(x) Z_sigma)-conjugation and an
    exp(r(x) Z_tau) section change; nu is glued from the matching trivial
    connections of each presentation.  The partition of unity is checked at 25
    base points drawn from a fixed seed.
    """
    desc = action.space.fiber
    twist = _Twist(desc, sigma_gen, p, tau_gen, r)
    w_a = ramp
    w_b = WeightRamp(ramp.lo, ramp.hi, ramp.axis, invert=not ramp.invert)
    pieces = [
        (w_a, canonical_local_form(desc)),
        (w_b, twisted_local_form(desc, twist)),
    ]
    lift_b = twisted_cocycle(desc, twist)

    def glued_lift(x, u):
        wb = w_b(x)
        if not np.count_nonzero(wb):
            return lambda fibers: np.zeros(np.broadcast_shapes(fibers.shape[:-2], wb.shape)
                                           + (desc.dim,))
        inner = lift_b(x, u)
        return lambda fibers: wb[..., None] * inner(fibers)

    nu = LieGroupBundleConnection(action.bundle, glued_lift)
    omega = GeneralizedPrincipalConnection(action, nu, pieces, label="omega-glued")
    check_rng = np.random.default_rng(0)
    for _ in range(25):
        x = action.space.quotient.sample(check_rng)
        wa, wb = w_a(x), w_b(x)
        if abs(wa + wb - 1.0) > 1e-12 or min(wa, wb) < -1e-12:
            raise ConstructionError(f"partition of unity fails at {x}: sum {wa + wb}")
    return omega, nu


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def _form_law_residuals(action, value, rng, samples, nu=None):
    """Worst residuals of the two laws of an algebra-valued form on random
    samples.  With a group connection nu: complementarity |value(generator of
    xi) - xi| and equivariance value(y.g, dPhi) = Ad_{g^-1}(value(y) + nu form).
    Without: horizontality |value(generator of xi)| and plain adjoint
    equivariance."""
    desc = action.space.fiber
    vert_worst = equi_worst = 0.0
    for _ in range(samples):
        y = action.space.random_point(rng)
        xi = desc.random_algebra(rng)
        target = xi.coords if nu is not None else 0.0
        vert = value(y, action.generator(y, xi)).coords - target
        vert_worst = max(vert_worst, float(np.linalg.norm(vert)))

        g = desc.random_element(rng)
        u = rng.standard_normal(action.space.quotient.dim)
        t_y = Tangent(u, desc.random_algebra(rng))
        t_g = Tangent(u, desc.random_algebra(rng))
        lhs = value(action.act(y, g), action.differential(y, g, t_y, t_g)).coords
        correction = nu.connection_form(y.q, g, u, t_g.delta).coords if nu is not None else 0.0
        rhs = desc.Ad_matrix(g.inverse()) @ (value(y, t_y).coords + correction)
        equi_worst = max(equi_worst, float(np.linalg.norm(lhs - rhs)))
    return vert_worst, equi_worst


def validate_principal_connection(omega, rng, samples=200):
    """Worst residuals of complementarity and of adjoint equivariance with the
    omega.nu correction on random samples."""
    comp, equi = _form_law_residuals(omega.action, omega.value, rng, samples, omega.nu)
    return {"complementarity": comp, "ad_equivariance": equi}


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------


def transport_total(omega, curve: BaseCurve, y0, step=1e-2, with_error_estimate=False):
    """Transport over a quotient curve by integrating the horizontal lift.

    ``y0`` is one TotalPoint, giving (end point, TransportResult), or a
    sequence of them, integrated as the rows of one fiber stack and giving a
    list of such pairs in the same order.  A TotalPoint whose fiber holds an
    (R, m, m) stack gives (end point holding the R endpoints, list of R
    TransportResult); on a family of R curves row r rides curve r.
    """
    desc = omega.descriptor
    single = isinstance(y0, TotalPoint)
    fibers = y0.fiber.matrix if single else np.stack([y.fiber.matrix for y in y0])

    def field(t):
        q, u = curve.position(t), curve.velocity(t)
        return lambda h: omega.horizontal_deltas(TotalPoint(q, GroupElement(h, desc, check=False)), u)

    results = integrate_stack(field, desc, fibers, (curve.a, curve.b), step, with_error_estimate)
    q_end = curve.position(curve.b)
    if not single:
        return [(TotalPoint(q_end, r.element), r) for r in results]
    if fibers.ndim == 2:
        return TotalPoint(q_end, results.element), results
    ends = np.stack([r.element.matrix for r in results])
    return TotalPoint(q_end, GroupElement(ends, desc, check=False)), results


def transport_compatibility_check(omega, curve, y, g, step=1e-2):
    """Transport of y.g against (transport of y).(nu-transport of g); y.g and
    y are independent rows of one stack.

    On a family of C curves y.q is (C, n), y.fiber and g hold one (C, m, m)
    fiber per curve, and the result is one residual per curve; a lone curve
    gives a float.
    """
    action = omega.action
    desc = omega.descriptor
    shape = y.fiber.matrix.shape
    rows = _rows([action.act(y, g).fiber.matrix, y.fiber.matrix])
    end, _ = transport_total(omega, curve.repeat(2),
                             TotalPoint(y.q, GroupElement(rows, desc, check=False)), step)
    end_yg, end_y = end.fiber.matrix.reshape((2,) + shape)
    (end_g,) = _transport_rows(omega.nu, curve, [g.matrix], step)
    recombined = action.act(TotalPoint(curve.position(curve.b), GroupElement(end_y, desc, check=False)),
                            GroupElement(end_g, desc, check=False))
    return _residual_norm(end_yg - recombined.fiber.matrix, 2)


def jet_equivariance_check(omega, y, g) -> float:
    """Jet of the horizontal section at y.g versus the jet-lifted action of the
    nu-horizontal jet at g on the horizontal jet at y."""
    from .bundles import jet_lift_action

    action = omega.action
    jet_y = omega.horizontal_jet(y)
    jet_g = omega.nu.jet_section(y.q, g, n=action.space.quotient.dim)
    pushed = jet_lift_action(action, jet_y, jet_g)
    target = omega.horizontal_jet(action.act(y, g))
    return float(
        np.linalg.norm(pushed.value.matrix - target.value.matrix)
        + np.max(np.abs(pushed.deriv - target.deriv))
    )


def horizontal_transform_check(omega, y, g, u, delta_g: AlgebraElement) -> float:
    """Finite-difference residual of pushing a horizontal lift through the
    action: the image is the horizontal lift at y.g plus the generator of the
    inverse-adjusted vertical part of the group tangent."""
    action = omega.action
    desc = omega.descriptor
    u = np.asarray(u, dtype=float)
    hor = omega.horizontal_lift(y, u)

    def composite(s):
        ys = TotalPoint(y.q + s * u, desc.exp(desc.algebra(s * hor.delta.coords)) @ y.fiber)
        gs = desc.exp(desc.algebra(s * delta_g.coords)) @ g
        return action.act(ys, gs).fiber.matrix

    dmat = central_difference(composite, 1e-5)
    yg = action.act(y, g)
    lhs_delta = desc.matrix_coords(dmat @ np.linalg.inv(yg.fiber.matrix), tol=1e-4)

    hor_yg = omega.horizontal_lift(yg, u)
    nu_val = omega.nu.connection_form(y.q, g, u, delta_g)
    zeta = desc.Ad(g.inverse(), nu_val)
    gen = action.generator(yg, zeta)
    rhs_delta = hor_yg.delta.coords + gen.delta.coords
    return float(np.linalg.norm(lhs_delta - rhs_delta))


# ---------------------------------------------------------------------------
# tensorial forms and the affine family
# ---------------------------------------------------------------------------


class TensorialAdjointForm:
    """Horizontal, adjoint-equivariant algebra-valued 1-form on the total space,
    given by its (dim, n + dim) matrix function like a connection piece."""

    def __init__(self, action: FiberedAction, matrix, label="difference"):
        self.action = action
        self.descriptor = action.space.fiber
        self.matrix = matrix
        self.label = label

    def value(self, y: TotalPoint, t: Tangent) -> AlgebraElement:
        return self.descriptor.algebra(self.matrix(y) @ np.concatenate([t.u, t.delta.coords]))

    def validate(self, rng, samples=100):
        """Worst residuals of horizontality and adjoint equivariance on random
        samples."""
        horiz, equi = _form_law_residuals(self.action, self.value, rng, samples)
        return {"horizontality": horiz, "ad_equivariance": equi}


def connection_difference(omega1, omega2) -> TensorialAdjointForm:
    """Pointwise difference of two connections associated to the same nu.

    The difference is horizontal and adjoint-equivariant; its `validate`
    measures both."""
    if omega1.action is not omega2.action:
        raise UsageError("connection difference requires a common total space action")
    return TensorialAdjointForm(omega1.action, lambda y: omega1.matrix(y) - omega2.matrix(y))


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------


def _dexp_operator(descriptor, w_coords, terms=24):
    """Matrix of the right-trivialized differential of exp at w on coordinates."""
    ad = descriptor.ad_matrix(w_coords)
    out = np.eye(descriptor.dim)
    term = np.eye(descriptor.dim)
    for k in range(1, terms + 1):
        term = term @ ad / (k + 1.0)
        out = out + term
        if np.linalg.norm(term) < 1e-18:
            break
    return out


@dataclass(frozen=True)
class CurvatureValue:
    value: AlgebraElement
    exterior_value: AlgebraElement
    gap: float


def curvature(omega, y: TotalPoint, u1, u2, h=None):
    """Curvature of the connection at y on base directions u1, u2.

    Primary path: minus the form on the numerical bracket of the horizontal
    lift fields of the (constant) base directions.  Cross-check path: the
    covariant exterior derivative evaluated on constant extensions of the
    horizontal lifts, using the algebra connection of nu for the covariant
    correction.  Both run in the exponential fiber chart at y; ``gap`` is the
    norm of their difference.

    The form takes values in the algebra bundle pulled back over the total
    space; the covariant correction acts through the base projection of each
    field, which realizes that pullback.
    """
    desc = omega.descriptor
    n = omega.action.space.quotient.dim
    d = desc.dim
    h0 = y.fiber
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)

    def point(z):
        w = z[n:]
        return TotalPoint(z[:n], desc.exp(desc.algebra(w)) @ h0)

    def field(u):
        def f(z):
            yq = point(z)
            delta = omega.horizontal_lift(yq, u).delta.coords
            op = _dexp_operator(desc, z[n:])
            return np.concatenate([u, np.linalg.solve(op, delta)])

        return f

    z0 = np.concatenate([y.q, np.zeros(d)])
    br = numerical_bracket(field(u1), field(u2), z0, h)
    bracket_tangent = Tangent(br[:n], desc.algebra(br[n:]))
    primary = desc.algebra(-omega.value(y, bracket_tangent).coords)

    # exterior path on constant field extensions (their bracket vanishes)
    alg_conn = AlgebraConnection(omega.nu)
    w1 = np.concatenate([u1, omega.horizontal_lift(y, u1).delta.coords])
    w2 = np.concatenate([u2, omega.horizontal_lift(y, u2).delta.coords])

    def omega_along(wvec):
        def f(z):
            yq = point(z)
            op = _dexp_operator(desc, z[n:])
            delta = desc.algebra(op @ wvec[n:])
            return omega.value(yq, Tangent(wvec[:n], delta)).coords

        return f

    d1 = directional_derivative(omega_along(w2), z0, w1, h)
    d2 = directional_derivative(omega_along(w1), z0, w2, h)
    k1 = alg_conn.generator(y.q, u1)
    k2 = alg_conn.generator(y.q, u2)
    f2_at = omega_along(w2)(z0)
    f1_at = omega_along(w1)(z0)
    exterior = (d1 - k1 @ f2_at) - (d2 - k2 @ f1_at)
    exterior_val = desc.algebra(exterior)

    gap = float(np.linalg.norm(primary.coords - exterior.reshape(-1)))
    return CurvatureValue(value=primary, exterior_value=exterior_val, gap=gap)


def reduced_curvature_residual(omega, y, g, u1, u2, h=None) -> float:
    """Representative independence of the reduced curvature: evaluate at y and
    at y.g and compare the induced adjoint-bundle classes."""
    action = omega.action
    val_y = curvature(omega, y, u1, u2, h).value
    val_yg = curvature(omega, action.act(y, g), u1, u2, h).value
    return adjoint_class_residual(
        AdjointBundlePoint(y, val_y), AdjointBundlePoint(action.act(y, g), val_yg)
    )


def equivariant_product_connection_check(omega, y, g, t_y: Tangent, t_g: Tangent) -> float:
    """Equivariance of the paired vertical projector (omega-generator, nu-form)
    under (y, g) -> (y.g, g), with the action differential by finite differences."""
    action = omega.action
    desc = omega.descriptor
    nu = omega.nu
    if not np.allclose(t_y.u, t_g.u):
        raise UsageError("tangent pair must share the base velocity")
    u = t_y.u

    omega_val = omega.value(y, t_y)
    nu_val = nu.connection_form(y.q, g, u, t_g.delta)

    # lhs: push the projected pair (generator of omega_val at y, vertical part
    # of t_g) through the action, by central differences of a product curve
    gen_y = action.generator(y, omega_val)

    def vertical_curve(s):
        ys = TotalPoint(y.q, desc.exp(desc.algebra(s * gen_y.delta.coords)) @ y.fiber)
        gs = desc.exp(desc.algebra(s * nu_val.coords)) @ g
        return action.act(ys, gs).fiber.matrix

    dmat = central_difference(vertical_curve, 1e-6)
    yg = action.act(y, g)
    lhs_first = desc.matrix_coords(dmat @ np.linalg.inv(yg.fiber.matrix), tol=1e-4)
    lhs_second = nu_val.coords

    # rhs: apply the projector at (y.g, g) to the pushed pair (dPhi(t_y,t_g), t_g)
    pushed_full = action.differential(y, g, t_y, t_g)
    omega_pushed = omega.value(yg, pushed_full)
    rhs_first = action.generator(yg, omega_pushed).delta.coords
    rhs_second = nu.connection_form(y.q, g, u, t_g.delta).coords
    return float(
        np.linalg.norm(lhs_first - rhs_first) + np.linalg.norm(lhs_second - rhs_second)
    )


def necessity_check(omega, rng, samples=100):
    """A passing connection form must sit over a multiplicative nu; both are
    judged at 1e-6, and a form that passes over a failing nu raises."""
    omega_report = validate_principal_connection(omega, rng, samples=samples)
    nu_report = validate_group_connection(omega.nu, rng, samples=samples)
    omega_ok = max(omega_report["complementarity"], omega_report["ad_equivariance"]) <= 1e-6
    nu_ok = max(nu_report["unit_kernel"], nu_report["cocycle"]) <= 1e-6
    report = {"omega": omega_report, "nu": nu_report, "omega_ok": omega_ok, "nu_ok": nu_ok}
    if omega_ok and not nu_ok:
        raise ValidationError(
            "connection form validates but its group connection is not multiplicative: "
            "scenario construction bug",
            report,
        )
    return report
