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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import UsageError
from .groups import GroupDescriptor, GroupElement, derive_structure_constants

__all__ = [
    "GaugeJet",
    "SecondJetTuple",
    "compose_second_jets",
    "section_product_jet",
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
    "fixed_point_is_trivial",
    "jet_realizing_curvature",
    "semidirect_jet_descriptor",
    "gauge_jet_from_element",
    "element_from_gauge_jet",
]


def _ad_slots(desc: GroupDescriptor, g: GroupElement, arr: np.ndarray) -> np.ndarray:
    """Apply Ad_g to the algebra index (last axis) of an array of coords."""
    return np.tensordot(arr, desc.Ad_matrix(g).T, axes=(-1, 0))


@dataclass(frozen=True, eq=False)
class GaugeJet:
    """Element (g, xi) of the jet gauge group over an n-dimensional base."""

    g: GroupElement
    xi: np.ndarray  # (n, dim_g)

    def __post_init__(self):
        xi = np.asarray(self.xi, dtype=float)
        if xi.ndim != 2 or xi.shape[1] != self.g.descriptor.dim:
            raise UsageError(f"xi must have shape (n, {self.g.descriptor.dim})")
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
        ad_eta = desc.Ad_matrix(self.g) @ np.asarray(eta, float)
        ad_phi = _ad_slots(desc, self.g, np.asarray(phi, float))
        correction = desc.bracket_coords(ad_eta[None, :], self.xi)
        return ad_eta, ad_phi - correction

    def distance(self, other: "GaugeJet") -> float:
        return float(
            np.linalg.norm(self.g.matrix - other.g.matrix) + np.linalg.norm(self.xi - other.xi)
        )

    @staticmethod
    def identity(desc: GroupDescriptor, n: int) -> "GaugeJet":
        return GaugeJet(desc.identity(), np.zeros((n, desc.dim)))

    @staticmethod
    def random(desc: GroupDescriptor, n: int, rng) -> "GaugeJet":
        return GaugeJet(desc.random_element(rng), rng.uniform(-1.0, 1.0, (n, desc.dim)))


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

    def distance(self, other: "SecondJetTuple") -> float:
        return float(
            np.linalg.norm(self.g.matrix - other.g.matrix)
            + np.linalg.norm(self.xi - other.xi)
            + np.linalg.norm(self.eta - other.eta)
            + np.linalg.norm(self.phi - other.phi)
        )


def compose_second_jets(a: SecondJetTuple, b: SecondJetTuple) -> SecondJetTuple:
    """Semidirect composition: the group acts diagonally by Ad on every slot."""
    desc = a.descriptor
    return SecondJetTuple(
        a.g @ b.g,
        a.xi + _ad_slots(desc, a.g, b.xi),
        a.eta + _ad_slots(desc, a.g, b.eta),
        a.phi + _ad_slots(desc, a.g, b.phi),
    )


def section_product_jet(a: SecondJetTuple, b: SecondJetTuple) -> SecondJetTuple:
    """One-jet of the pointwise product of sections represented by a and b.

    The chain rule adds the bracket of the left factor's derivative slot with
    the Ad-translated value slot of the right factor:
    phi_uv += [eta_u, (Ad_g xi'_v)]."""
    desc = a.descriptor
    ad_xi = _ad_slots(desc, a.g, b.xi)
    bracket = desc.bracket_coords(a.eta[:, None, :], ad_xi[None, :, :])
    return SecondJetTuple(
        a.g @ b.g,
        a.xi + ad_xi,
        a.eta + _ad_slots(desc, a.g, b.eta),
        a.phi + _ad_slots(desc, a.g, b.phi) + bracket,
    )


# ---------------------------------------------------------------------------
# the jet-group bundle connection and the classification
# ---------------------------------------------------------------------------


def jet_connection_value(k: GaugeJet) -> SecondJetTuple:
    """Horizontal jet through (g, xi): derivative slots (xi, 0)."""
    n = k.xi.shape[0]
    return SecondJetTuple(k.g, k.xi, k.xi, np.zeros((n, n, k.descriptor.dim)))


def jet_connection_multiplicativity_residual(k1: GaugeJet, k2: GaugeJet) -> float:
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
            g_val = _ad_slots(desc, w.g, g_val)
        return SecondJetTuple(w.g, w.xi, f_val + w.xi, g_val)


def classification_equivariance_residual(
    omega_hat: EquivariantJetConnection, k: GaugeJet, w: GaugeJet
) -> float:
    """Residual of omega_hat(k . w) = nu_hat(k) . omega_hat(w) (semidirect
    composition; the left action on values is the group product)."""
    lhs = omega_hat(np.zeros(omega_hat.n), k.mul(w))
    rhs = compose_second_jets(jet_connection_value(k), omega_hat(np.zeros(omega_hat.n), w))
    return lhs.distance(rhs)


def extract_classifying_sections(omega_hat, x, n, desc):
    """Read off the classifying sections from the value at the unit jet."""
    at_unit = omega_hat(x, GaugeJet.identity(desc, n))
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
        if not (np.all(np.isfinite(self.A)) and np.all(np.isfinite(self.DA))):
            raise UsageError("connection jet entries must be finite")

    @staticmethod
    def random(desc, n, rng):
        return ConnectionJet(desc, rng.uniform(-1.0, 1.0, (n, desc.dim)),
                             rng.uniform(-1.0, 1.0, (n, n, desc.dim)))


def curvature_map(jet: ConnectionJet) -> np.ndarray:
    """F_uv = DA_uv - DA_vu - [A_u, A_v]; antisymmetric (n, n, dim_g) array."""
    desc = jet.descriptor
    antisym = jet.DA - np.swapaxes(jet.DA, 0, 1)
    bracket = desc.bracket_coords(jet.A[:, None, :], jet.A[None, :, :])
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
        asym = np.max(np.abs(sigma - np.swapaxes(sigma, 0, 1)))
        if asym > 1e-12:
            raise UsageError(f"sigma must be symmetric in its covector slots (defect {asym:.2e})")

    @staticmethod
    def random(desc, n, rng):
        raw = rng.uniform(-1.0, 1.0, (n, n, desc.dim))
        return GaugeSecondJet(desc, rng.uniform(-1.0, 1.0, (n, desc.dim)),
                              0.5 * (raw + np.swapaxes(raw, 0, 1)))


def apply_gauge_second_jet(jet: ConnectionJet, gauge: GaugeSecondJet) -> ConnectionJet:
    """Frozen coordinate form of the identity-value second-jet action."""
    desc = jet.descriptor
    new_a = jet.A + gauge.xi
    cross = desc.bracket_coords(gauge.xi[:, None, :], jet.A[None, :, :])
    self_term = 0.5 * desc.bracket_coords(gauge.xi[:, None, :], gauge.xi[None, :, :])
    new_da = jet.DA + gauge.sigma + cross + self_term
    return ConnectionJet(desc, new_a, new_da)


def curvature_invariance_residual(jet: ConnectionJet, gauge: GaugeSecondJet) -> float:
    """Largest change of the curvature map under an identity-value second jet."""
    before = curvature_map(jet)
    after = curvature_map(apply_gauge_second_jet(jet, gauge))
    return float(np.max(np.abs(after - before)))


def restricted_action_move(jet: ConnectionJet, gauge: GaugeSecondJet) -> float:
    """Largest entry of the change an identity-value second jet makes to a
    connection jet."""
    moved = apply_gauge_second_jet(jet, gauge)
    return float(np.maximum(np.max(np.abs(moved.A - jet.A)), np.max(np.abs(moved.DA - jet.DA))))


def fixed_point_is_trivial(jet: ConnectionJet, gauge: GaugeSecondJet) -> bool:
    """The restricted action is free: only the zero jet fixes a point, with
    zero judged entrywise at 1e-12."""
    zero = max(np.max(np.abs(gauge.xi)), np.max(np.abs(gauge.sigma))) <= 1e-12
    return restricted_action_move(jet, gauge) > 1e-12 or zero


def jet_realizing_curvature(desc, target_f: np.ndarray) -> ConnectionJet:
    """A connection jet whose curvature equals a given antisymmetric target."""
    target_f = np.asarray(target_f, dtype=float)
    asym = np.max(np.abs(target_f + np.swapaxes(target_f, 0, 1)))
    if asym > 1e-12:
        raise UsageError("target curvature array must be antisymmetric")
    n = target_f.shape[0]
    return ConnectionJet(desc, np.zeros((n, desc.dim)), 0.5 * target_f)


# ---------------------------------------------------------------------------
# block-matrix descriptor for the semidirect jet group
# ---------------------------------------------------------------------------


def _embed_jet(n, g_matrix, ad_matrix, xi_flat):
    """The block matrix blockdiag(g, [[I_n (x) Ad_g, vec(xi)], [0, 1]]) of (g, xi)."""
    m, vdim = len(g_matrix), n * len(ad_matrix)
    out = np.zeros((m + vdim + 1, m + vdim + 1))
    out[:m, :m] = g_matrix
    out[m : m + vdim, m : m + vdim] = np.kron(np.eye(n), ad_matrix)
    out[m : m + vdim, -1] = xi_flat
    out[-1, -1] = 1.0
    return out


def semidirect_jet_descriptor(base: GroupDescriptor, n: int) -> GroupDescriptor:
    """GroupDescriptor for G x| (n copies of the algebra), as block matrices.

    An element (g, xi) embeds as blockdiag(g, [[I_n (x) Ad_g, vec(xi)], [0, 1]]),
    so the standard exp/log/Ad/bracket machinery applies unchanged.
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

    def residual(mat):
        g_blk = mat[:m, :m]
        res = base.membership_residual(g_blk)
        res += float(np.linalg.norm(mat[m : m + vdim, m : m + vdim]
                                    - np.kron(np.eye(n), _ad_of(g_blk))))
        res += float(np.linalg.norm(mat[:m, m:]) + np.linalg.norm(mat[m:, :m]))
        res += abs(mat[-1, -1] - 1.0) + float(np.linalg.norm(mat[-1, :-1]))
        return res

    def _ad_of(g_blk):
        return base.Ad_matrix(GroupElement(base.retract(g_blk), base, check=False))

    def retract(mat):
        g_blk = base.retract(mat[:m, :m])
        return _embed_jet(n, g_blk, _ad_of(g_blk), mat[m : m + vdim, -1].copy())

    desc = GroupDescriptor(
        name=f"jet({base.name},n={n})",
        matrix_dim=total,
        basis=basis,
        structure_constants=derive_structure_constants(basis),
        membership_tol=max(base.membership_tol, 1e-8),
        family="semidirect",
        injectivity_radius=base.injectivity_radius,
        retraction=retract,
        membership_residual_fn=residual,
        extra={"base": base, "n": n, "m": m, "vdim": vdim},
    )
    return desc


def element_from_gauge_jet(desc_jet: GroupDescriptor, k: GaugeJet) -> GroupElement:
    base = desc_jet.extra["base"]
    out = _embed_jet(desc_jet.extra["n"], k.g.matrix, base.Ad_matrix(k.g), k.xi.reshape(-1))
    return GroupElement(out, desc_jet, check=False)


def gauge_jet_from_element(desc_jet: GroupDescriptor, e: GroupElement) -> GaugeJet:
    base = desc_jet.extra["base"]
    m = desc_jet.extra["m"]
    n = desc_jet.extra["n"]
    vdim = desc_jet.extra["vdim"]
    g = GroupElement(e.matrix[:m, :m], base, check=False)
    xi = e.matrix[m : m + vdim, -1].reshape(n, base.dim).copy()
    return GaugeJet(g, xi)
