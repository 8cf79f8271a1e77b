"""Gauge-jet machinery: the semidirect jet group, its bundle connection, the
classification of equivariant jet connections, and the curvature quotient map.

Elements of the jet gauge group are pairs (g, xi) with g in G and xi an
(n, dim_g) array of algebra values (one per base covector slot), multiplying
as (g, xi)(g', xi') = (g g', xi + Ad_g o xi').  Second-jet tuples
(g, xi, eta, phi) compose with the same pattern applied slotwise (the
semidirect composition); the chain-rule jet of a product of represented
sections is a separate operation and carries an extra bracket term.

Connection one-jets are pairs (A, DA); the curvature map

    F_uv = DA_uv - DA_vu - [A_u, A_v]

is exactly invariant under identity-value second jets acting by

    A -> A + xi,   DA_uv -> DA_uv + sigma_uv + [xi_u, A_v] + [xi_u, xi_v]/2,

which is the coordinate form of the chain-rule action frozen from analytic
representatives gamma(x) = exp(xi dx + sigma dx dx / 2).

Every jet may hold a stack of samples along a leading axis: operations then
work row by row, and residuals return one value per row, not a float.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .calculus import Uniform, sample_rows
from .errors import UsageError
from .groups import (GroupDescriptor, GroupElement, _any, _dexp_operator, _frobenius, _norm,
                     derive_structure_constants)

__all__ = [
    "GaugeJet",
    "SecondJetTuple",
    "compose_second_jets",
    "jet_connection_value",
    "jet_connection_multiplicativity_residual",
    "EquivariantJetConnection",
    "classification_equivariance_residual",
    "extract_classifying_sections",
    "ConnectionJet",
    "curvature_map",
    "GaugeSecondJet",
    "apply_gauge_second_jet",
    "curvature_invariance_residual",
    "restricted_action_move",
    "jet_realizing_curvature",
    "semidirect_jet_descriptor",
    "element_from_gauge_jet",
]


def _ad_slots(desc: GroupDescriptor, g: GroupElement, arr: np.ndarray, slots=1) -> np.ndarray:
    """Apply Ad_g to the algebra index (last axis) of coords with ``slots``
    covector axes; a stacked g twists its own row of arr, or all of a lone arr.
    A contiguous Ad_g^T gives the transposed view's bits in half the time.  On
    an abelian fiber Ad_g is the identity and arr comes back broadcast to the
    product's shape (a -0.0 entry keeps its sign, which ``x @ I`` drops)."""
    if desc.abelian:
        lead = np.shape(g.matrix)[:-2] + (1,) * (slots + 1)
        return np.broadcast_to(arr, np.broadcast_shapes(lead, arr.shape))
    ad_t = np.ascontiguousarray(np.swapaxes(desc.Ad_matrix(g), -1, -2))
    return arr @ ad_t.reshape(ad_t.shape[:-2] + (1,) * (slots - 1) + ad_t.shape[-2:])


def _per_row(value):
    """A float for a lone jet's value, the array for a stack's."""
    return float(value) if np.ndim(value) == 0 else value


def _max_abs(arr, lone_ndim):
    """Largest |entry| of each row of an array whose lone form has lone_ndim axes."""
    return _per_row(np.max(np.abs(arr), axis=tuple(range(arr.ndim - lone_ndim, arr.ndim))))


def _finite(arr, lone_ndim):
    return np.isfinite(arr).all(axis=tuple(range(arr.ndim - lone_ndim, arr.ndim)))


def _require(ok, what, detail=""):
    """UsageError unless ok holds in every row; a stack names the failing rows."""
    bad = ~np.asarray(ok)
    if _any(bad):
        rows = f" in rows {np.flatnonzero(bad).tolist()}" if bad.ndim else ""
        raise UsageError(f"{what}{rows}{detail}")


def _distance(*pairs):
    """Sum of the Frobenius norms of a - b over (a, b, lone ndim) triples, as
    np.linalg.norm sums them: a float, or one per row of a stack."""
    total = 0.0
    for a, b, lone_ndim in pairs:
        diff = a - b
        total = total + _norm(diff.reshape(diff.shape[: diff.ndim - lone_ndim] + (-1,)))
    return _per_row(total)


@dataclass(frozen=True, eq=False)
class GaugeJet:
    """Element (g, xi) of the jet gauge group over an n-dimensional base."""

    g: GroupElement
    xi: np.ndarray  # (n, dim_g), or (S, n, dim_g)

    def __post_init__(self):
        xi = np.asarray(self.xi, dtype=float)
        d = self.g.descriptor.dim
        if xi.ndim not in (2, 3) or xi.shape[-1] != d:
            raise UsageError(f"xi must have shape (n, {d}) or (S, n, {d})")
        _require(_finite(xi, 2), "xi must be finite")
        object.__setattr__(self, "xi", xi)

    @property
    def descriptor(self):
        return self.g.descriptor

    def mul(self, other: "GaugeJet") -> "GaugeJet":
        desc = self.descriptor
        return GaugeJet(self.g @ other.g, self.xi + _ad_slots(desc, self.g, other.xi))

    def inv(self) -> "GaugeJet":
        desc = self.descriptor
        ginv = self.g.inverse()
        return GaugeJet(ginv, -_ad_slots(desc, ginv, self.xi))

    def adjoint(self, eta: np.ndarray, phi: np.ndarray):
        """Adjoint action on algebra pairs: (Ad_g eta, Ad_g o phi - [Ad_g eta, xi])."""
        desc = self.descriptor
        ad_eta = (desc.Ad_matrix(self.g) @ np.asarray(eta, float)[..., None])[..., 0]
        ad_phi = _ad_slots(desc, self.g, np.asarray(phi, float))
        correction = desc.bracket_coords(ad_eta[..., None, :], self.xi)
        return ad_eta, ad_phi - correction

    def distance(self, other: "GaugeJet"):
        return _distance((self.g.matrix, other.g.matrix, 2), (self.xi, other.xi, 2))

    @staticmethod
    def identity(desc: GroupDescriptor, n: int) -> "GaugeJet":
        return GaugeJet(desc.identity(), np.zeros((n, desc.dim)))

    @staticmethod
    def random(desc: GroupDescriptor, n: int, rng) -> "GaugeJet":
        coords, xi = sample_rows(rng, 1, desc.coords_field, Uniform((n, desc.dim)))
        return GaugeJet(desc.exp(desc.algebra(coords[0])), xi[0])


@dataclass(frozen=True, eq=False)
class SecondJetTuple:
    """Tuple (g, xi, eta, phi): a point of the second-level jet space.

    eta has shape (n, dim_g), phi has shape (n, n, dim_g)."""

    g: GroupElement
    xi: np.ndarray
    eta: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "xi", np.asarray(self.xi, dtype=float))
        object.__setattr__(self, "eta", np.asarray(self.eta, dtype=float))
        object.__setattr__(self, "phi", np.asarray(self.phi, dtype=float))

    @property
    def descriptor(self):
        return self.g.descriptor

    def distance(self, other: "SecondJetTuple"):
        return _distance((self.g.matrix, other.g.matrix, 2), (self.xi, other.xi, 2),
                         (self.eta, other.eta, 2), (self.phi, other.phi, 3))


def compose_second_jets(a: SecondJetTuple, b: SecondJetTuple) -> SecondJetTuple:
    """Semidirect composition: the group acts diagonally by Ad on every slot."""
    desc = a.descriptor
    return SecondJetTuple(
        a.g @ b.g,
        a.xi + _ad_slots(desc, a.g, b.xi),
        a.eta + _ad_slots(desc, a.g, b.eta),
        a.phi + _ad_slots(desc, a.g, b.phi, slots=2),
    )


# ---------------------------------------------------------------------------
# the jet-group bundle connection and the classification
# ---------------------------------------------------------------------------


def jet_connection_value(k: GaugeJet) -> SecondJetTuple:
    """Horizontal jet through (g, xi): derivative slots (xi, 0)."""
    return SecondJetTuple(k.g, k.xi, k.xi, np.zeros(k.xi.shape[:-1] + k.xi.shape[-2:]))


def jet_connection_multiplicativity_residual(k1: GaugeJet, k2: GaugeJet):
    lhs = jet_connection_value(k1.mul(k2))
    rhs = compose_second_jets(jet_connection_value(k1), jet_connection_value(k2))
    return lhs.distance(rhs)


class EquivariantJetConnection:
    """Jet connection on the gauge-jet total space classified by two sections.

    omega_hat(h, A) = (h, A, Ad_h o f(x) + A, Ad_h o g2(x)); the defaults
    f = g2 = 0 give omega_hat(h, A) = (h, A, A, 0)."""

    def __init__(self, descriptor, n, f: Optional[Callable] = None, g2: Optional[Callable] = None,
                 drop_ad_twist=False):
        self.descriptor = descriptor
        self.n = n
        self.f = f if f is not None else (lambda x: np.zeros((n, descriptor.dim)))
        self.g2 = g2 if g2 is not None else (lambda x: np.zeros((n, n, descriptor.dim)))
        self.drop_ad_twist = drop_ad_twist  # negative control: breaks equivariance

    def __call__(self, x, w: GaugeJet) -> SecondJetTuple:
        desc = self.descriptor
        f_val = np.asarray(self.f(x), dtype=float)
        g_val = np.asarray(self.g2(x), dtype=float)
        if not self.drop_ad_twist:
            f_val = _ad_slots(desc, w.g, f_val)
            g_val = _ad_slots(desc, w.g, g_val, slots=2)
        return SecondJetTuple(w.g, w.xi, f_val + w.xi, g_val)


def classification_equivariance_residual(omega_hat: EquivariantJetConnection, k, w):
    """Residual of omega_hat(k . w) = nu_hat(k) . omega_hat(w) (semidirect
    composition; the left action on values is the group product)."""
    lhs = omega_hat(np.zeros(omega_hat.n), k.mul(w))
    rhs = compose_second_jets(jet_connection_value(k), omega_hat(np.zeros(omega_hat.n), w))
    return lhs.distance(rhs)


def extract_classifying_sections(omega_hat, x):
    """Read off the classifying sections from the value at the unit jet."""
    at_unit = omega_hat(x, GaugeJet.identity(omega_hat.descriptor, omega_hat.n))
    return at_unit.eta.copy(), at_unit.phi.copy()


# ---------------------------------------------------------------------------
# connection jets and the curvature quotient map
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ConnectionJet:
    """One-jet (A, DA) of a connection coefficient: A is (n, dim_g), DA is
    (n, n, dim_g) with DA[u, v] the u-derivative of A_v."""

    descriptor: GroupDescriptor
    A: np.ndarray
    DA: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", np.asarray(self.A, dtype=float))
        object.__setattr__(self, "DA", np.asarray(self.DA, dtype=float))
        _require(_finite(self.A, 2) & _finite(self.DA, 3), "connection jet entries must be finite")

    @staticmethod
    def random(desc, n, rng):
        a, da = sample_rows(rng, 1, Uniform((n, desc.dim)), Uniform((n, n, desc.dim)))
        return ConnectionJet(desc, a[0], da[0])


def curvature_map(jet: ConnectionJet) -> np.ndarray:
    """F_uv = DA_uv - DA_vu - [A_u, A_v]; antisymmetric (n, n, dim_g) array."""
    desc = jet.descriptor
    antisym = jet.DA - np.swapaxes(jet.DA, -3, -2)
    bracket = desc.bracket_coords(jet.A[..., :, None, :], jet.A[..., None, :, :])
    return antisym - bracket


@dataclass(frozen=True, eq=False)
class GaugeSecondJet:
    """Identity-value second jet (xi, sigma) with sigma symmetric."""

    descriptor: GroupDescriptor
    xi: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        xi = np.asarray(self.xi, dtype=float)
        sigma = np.asarray(self.sigma, dtype=float)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "sigma", sigma)
        _require(_finite(xi, 2) & _finite(sigma, 3), "second jet entries must be finite")
        asym = _max_abs(sigma - np.swapaxes(sigma, -3, -2), 3)
        _require(asym <= 1e-12, "sigma must be symmetric in its covector slots",
                 f" (defect {np.max(asym):.2e})")

    @staticmethod
    def random(desc, n, rng):
        raw, xi = sample_rows(rng, 1, Uniform((n, n, desc.dim)), Uniform((n, desc.dim)))
        return GaugeSecondJet(desc, xi[0], 0.5 * (raw[0] + np.swapaxes(raw[0], 0, 1)))


def apply_gauge_second_jet(jet: ConnectionJet, gauge: GaugeSecondJet) -> ConnectionJet:
    """Frozen coordinate form of the identity-value second-jet action."""
    desc = jet.descriptor
    new_a = jet.A + gauge.xi
    cross = desc.bracket_coords(gauge.xi[..., :, None, :], jet.A[..., None, :, :])
    self_term = 0.5 * desc.bracket_coords(gauge.xi[..., :, None, :], gauge.xi[..., None, :, :])
    new_da = jet.DA + gauge.sigma + cross + self_term
    return ConnectionJet(desc, new_a, new_da)


def curvature_invariance_residual(jet: ConnectionJet, gauge: GaugeSecondJet):
    """Largest change of the curvature map under an identity-value second jet."""
    before = curvature_map(jet)
    after = curvature_map(apply_gauge_second_jet(jet, gauge))
    return _max_abs(after - before, 3)


def restricted_action_move(jet: ConnectionJet, gauge: GaugeSecondJet):
    """Largest entry of the change an identity-value second jet makes to a
    connection jet."""
    moved = apply_gauge_second_jet(jet, gauge)
    return _per_row(np.maximum(_max_abs(moved.A - jet.A, 2), _max_abs(moved.DA - jet.DA, 3)))


def jet_realizing_curvature(desc, target_f: np.ndarray) -> ConnectionJet:
    """A connection jet whose curvature equals a given antisymmetric target."""
    target_f = np.asarray(target_f, dtype=float)
    _require(_max_abs(target_f + np.swapaxes(target_f, -3, -2), 3) <= 1e-12,
             "target curvature array must be antisymmetric")
    return ConnectionJet(desc, np.zeros(target_f.shape[:-2] + (desc.dim,)), 0.5 * target_f)


# ---------------------------------------------------------------------------
# block-matrix descriptor for the semidirect jet group
# ---------------------------------------------------------------------------


def _embed_jet(n, g_matrix, ad_matrix, xi_flat):
    """The block matrix blockdiag(g, [[I_n (x) Ad_g, vec(xi)], [0, 1]]) of each (g, xi)."""
    m, d = g_matrix.shape[-1], ad_matrix.shape[-1]
    out = np.zeros(g_matrix.shape[:-2] + (m + n * d + 1, m + n * d + 1))
    out[..., :m, :m] = g_matrix
    for r in range(m, m + n * d, d):  # the n diagonal blocks of I_n (x) Ad_g
        out[..., r : r + d, r : r + d] = ad_matrix
    out[..., m : m + n * d, -1] = xi_flat
    out[..., -1, -1] = 1.0
    return out


def semidirect_jet_descriptor(base: GroupDescriptor, n: int) -> GroupDescriptor:
    """GroupDescriptor for G x| (n copies of the algebra), as block matrices.

    An element (g, xi) embeds as blockdiag(g, [[I_n (x) Ad_g, vec(xi)], [0, 1]]),
    so the standard log/Ad/bracket machinery applies unchanged (log through
    scipy's logm).  exp has a closed form from the base: the algebra element
    (a, eta) goes to (exp a, (I_n (x) phi(ad_a)) eta) with phi(ad) =
    (e^ad - 1) / ad.  Its exp, membership residual and retraction act row by
    row on a (B, M, M) stack.
    """
    d = base.dim
    m = base.matrix_dim
    vdim = n * d
    total = m + vdim + 1

    basis = []
    for i in range(d):
        blk = _embed_jet(n, base.basis[i], base.ad_matrix(np.eye(d)[i]), 0.0)
        blk[-1, -1] = 0.0  # an algebra element has no unit corner
        basis.append(blk)
    for mu in range(n):
        for j in range(d):
            blk = np.zeros((total, total))
            blk[m + mu * d + j, -1] = 1.0
            basis.append(blk)
    basis = np.stack(basis)

    def retract(mat, measure):
        blk = mat[..., :m, :m]
        g_blk, res = base.retract_measured(blk) if measure else (base.retract(blk), None)
        ad = base.Ad_matrix(g_blk)
        out = _embed_jet(n, g_blk, ad, mat[..., m : m + vdim, -1])
        if measure:
            res = res + _frobenius(mat[..., m : m + vdim, m : m + vdim] - np.kron(np.eye(n), ad))
            res = res + (_frobenius(mat[..., :m, m:]) + _frobenius(mat[..., m:, :m]))
            res = res + (abs(mat[..., -1, -1] - 1.0) + _norm(mat[..., -1, :-1]))
        return out, res

    def exp(coords):
        a, eta = coords[..., :d], coords[..., d:].reshape(coords.shape[:-1] + (n, d, 1))
        g_blk = base.exp_coords(a)
        xi = (_dexp_operator(base, a)[..., None, :, :] @ eta).reshape(eta.shape[:-3] + (vdim,))
        return _embed_jet(n, g_blk, base.Ad_matrix(g_blk), xi)

    desc = GroupDescriptor(
        name=f"jet({base.name},n={n})",
        basis=basis,
        structure_constants=derive_structure_constants(basis),
        membership_tol=max(base.membership_tol, 1e-8),
        injectivity_radius=base.injectivity_radius,
        retraction=retract,
        exp_hook=exp,
        extra={"base": base, "n": n},
    )
    return desc


def element_from_gauge_jet(desc_jet: GroupDescriptor, k: GaugeJet) -> GroupElement:
    base = desc_jet.extra["base"]
    xi_flat = k.xi.reshape(k.xi.shape[:-2] + (-1,))
    out = _embed_jet(desc_jet.extra["n"], k.g.matrix, base.Ad_matrix(k.g), xi_flat)
    return GroupElement(out, desc_jet, check=False)
