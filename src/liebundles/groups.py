"""Matrix Lie group kernel, numerics only (`scenarios` reads JSON descriptors).

Groups are embedded matrix groups described by a :class:`GroupDescriptor`: an
algebra basis, structure constants, and a retraction that projects near-group
matrices back onto the group and, when asked, measures their membership
residual: `retract` (and with it `exp` and every exp draw) does not measure,
`retract_measured` and `membership_residual` do.
Elements are thin immutable wrappers around numpy arrays; every operation is
a pure function, so values are safe to share across threads.

The array kernels (algebra and coordinate maps, exp, log, Ad_matrix,
membership residual, retraction, inverse, bracket) broadcast over leading axes: a
(B, m, m) stack of group matrices or a (B, dim) stack of coordinates is
handled row by row in one call, and a GroupElement or an AlgebraElement may
hold such a stack.

The logarithm has two paths.  `GroupDescriptor.log` is for input from outside
the program and checks the algebra span, finiteness, the injectivity radius
and an exp round trip.  `log_coords` is the raw kernel, with the same floats,
for fibers the program made: exp draws and the fibers of `integrate_stack`,
which checks its initial fibers once and retracts every step.

scipy is imported only where `expm` or `logm` runs, for descriptors without
an exp or log hook; no preset reaches them.  `_dexp_operator` is the one
phi(ad) series, shared by the curvature's exponential chart and the jet exp.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import DescriptorError, DomainError, RangeError, UsageError

__all__ = [
    "GroupDescriptor",
    "AlgebraElement",
    "GroupElement",
    "so3_descriptor",
    "translation_descriptor",
]


def _commutators(basis):
    """All commutators [E_i, E_j] of a (d, m, m) basis as one (d, d, m, m) stack."""
    prod = basis[:, None] @ basis[None, :]
    return prod - np.swapaxes(prod, 0, 1)


def derive_structure_constants(basis):
    """Structure constants c[k,i,j] with [E_i, E_j] = sum_k c[k,i,j] E_k.

    One least-squares solve against the flattened basis takes every
    commutator as a right-hand side; raises, naming the first pair in (i, j)
    order, if some commutator leaves the span of the basis.
    """
    basis = np.asarray(basis, dtype=float)
    d = basis.shape[0]
    flat = basis.reshape(d, -1).T  # (m*m, d)
    comm = _commutators(basis).reshape(d * d, -1).T  # column i*d + j holds [E_i, E_j]
    coef = np.linalg.lstsq(flat, comm, rcond=None)[0]
    off = np.flatnonzero(np.linalg.norm(flat @ coef - comm, axis=0) > 1e-10)
    if off.size:
        i, j = divmod(int(off[0]), d)
        raise DescriptorError(f"commutator [E_{i}, E_{j}] is not in the span of the algebra basis")
    c = coef.reshape(d, d, d)
    c[np.abs(c) < 1e-12] = 0.0
    return 0.5 * (c - np.swapaxes(c, 1, 2))


@dataclass(frozen=True, eq=False)
class GroupDescriptor:
    """An embedded matrix Lie group together with its numerical controls.

    ``basis`` has shape (dim, m, m), both sizes read from it; ``structure_constants``
    has shape (dim, dim, dim) indexed as c[k, i, j].  ``abelian``, set once from
    them, says whether they all vanish: the one test of a flat bracket.
    """

    name: str
    basis: np.ndarray
    structure_constants: np.ndarray
    membership_tol: float = 1e-8
    injectivity_radius: float = np.inf
    # (matrices, measure) -> (retracted matrices, membership residual of each
    # before retraction if measure, else None)
    retraction: Optional[Callable[[np.ndarray, bool],
                                  Tuple[np.ndarray, Optional[np.ndarray]]]] = None
    exp_hook: Optional[Callable[[np.ndarray], np.ndarray]] = None  # coordinates -> matrices
    log_hook: Optional[Callable[[np.ndarray], np.ndarray]] = None
    ad_matrix_hook: Optional[Callable[[np.ndarray], np.ndarray]] = None
    inverse_hook: Optional[Callable[[np.ndarray], np.ndarray]] = None
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=float)
        if basis.ndim != 3 or basis.shape[1] != basis.shape[2]:
            raise UsageError(f"basis has shape {basis.shape}, expected (dim, m, m)")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(
            self, "structure_constants", np.asarray(self.structure_constants, dtype=float)
        )
        flat = basis.reshape(basis.shape[0], -1).T
        object.__setattr__(self, "_basis_flat", flat)
        object.__setattr__(self, "_basis_pinv", np.linalg.pinv(flat))
        # row i holds c[:, i, :]: coordinates times it give the ad matrix
        c = self.structure_constants
        object.__setattr__(self, "abelian", not np.any(c))
        object.__setattr__(self, "_ad_rows", np.ascontiguousarray(
            np.swapaxes(c, 0, 1).reshape(c.shape[1], -1)))
        k, i, j = np.nonzero(c)  # in (k, i, j) order; round r holds the r-th nonzero of each k
        rank = np.arange(k.size) - np.searchsorted(k, k)  # the r of each nonzero
        object.__setattr__(self, "_bracket_rounds", tuple(
            (slice(None) if s.sum() == c.shape[0] else k[s], i[s], j[s], c[k[s], i[s], j[s]])
            for s in (rank == r for r in range(rank.max(initial=-1) + 1))))

    # -- basic queries -------------------------------------------------

    @property
    def dim(self):
        return self.basis.shape[0]

    @property
    def matrix_dim(self):
        return self.basis.shape[-1]

    def identity(self):
        return GroupElement(np.eye(self.matrix_dim), self, check=False)

    def zero(self):
        return AlgebraElement(np.zeros(self.dim), self)

    def algebra(self, coords):
        return AlgebraElement(np.asarray(coords, dtype=float), self)

    def element(self, matrix, check=True):
        return GroupElement(np.asarray(matrix, dtype=float), self, check=check)

    # -- coordinates <-> matrices ---------------------------------------

    def algebra_matrix(self, coords):
        coords = np.asarray(coords, dtype=float)
        m = self.matrix_dim
        # a row vector per point keeps each row bit-identical to a lone point
        flat = coords[..., None, :] @ self._basis_flat.T
        return flat.reshape(coords.shape[:-1] + (m, m))

    def matrix_coords(self, matrix, tol=1e-9):
        """Coordinates of a matrix in the algebra basis; error if off-span."""
        matrix = np.asarray(matrix, dtype=float)
        flat = matrix.reshape(matrix.shape[:-2] + (-1,))[..., None]
        coords = (self._basis_pinv @ flat)[..., 0]
        residual = _norm((self._basis_flat @ coords[..., None] - flat)[..., 0])
        if _any(residual > tol * np.maximum(1.0, _norm(flat[..., 0]))):
            raise DescriptorError(
                f"matrix is not in the span of the {self.name} algebra basis "
                f"(residual {np.max(residual):.3e})"
            )
        return coords

    # -- membership ------------------------------------------------------

    def membership_residual(self, matrix):
        """Distance from the group, one per stacked matrix (a numpy float for a
        lone one): the residual the retraction measures."""
        return self.retract_measured(matrix)[1]

    def retract(self, matrix):
        """The matrices of `retract_measured`, bit for bit, with no residual
        measured."""
        if self.retraction is None:
            return matrix
        return self.retraction(matrix, False)[0]

    def retract_measured(self, matrix):
        """(retracted matrices, membership residual each had before), in one
        pass; the retraction hook is the one membership measure, and a
        descriptor without one keeps its matrices with zero residuals."""
        if self.retraction is None:
            return matrix, np.zeros(np.shape(matrix)[:-2])[()]
        return self.retraction(matrix, True)

    def inverse(self, matrix):
        """Inverse of a group matrix, or of each matrix of a stack."""
        if self.inverse_hook is not None:
            return self.inverse_hook(matrix)
        return np.linalg.inv(matrix)

    # -- core operations --------------------------------------------------

    def exp_coords(self, coords):
        """Group exponential of raw algebra coordinates, not retracted."""
        coords = np.asarray(coords, dtype=float)
        if self.exp_hook is not None:
            return self.exp_hook(coords)
        import scipy.linalg  # only descriptors without an exp hook pay for scipy
        return scipy.linalg.expm(self.algebra_matrix(coords))

    def exp(self, xi: "AlgebraElement") -> "GroupElement":
        """Group exponential of an algebra element, retracted onto the group."""
        return GroupElement(self.retract(self.exp_coords(xi.coords)), self, check=False)

    def _log_matrix(self, mat):
        if self.log_hook is not None:
            return self.log_hook(mat)
        rows = mat.reshape((-1,) + mat.shape[-2:])
        return np.stack([_principal_logm(r) for r in rows]).reshape(mat.shape)

    def log_coords(self, matrix):
        """Principal logarithm of group matrices the program made (exp draws,
        retracted integrator ends) as algebra coordinates, unchecked: only the
        so3 and logm branch guards run.  Outside input goes through `log`."""
        m = self._log_matrix(np.asarray(matrix, dtype=float))
        return (self._basis_pinv @ m.reshape(m.shape[:-2] + (-1,))[..., None])[..., 0]

    def log(self, g: "GroupElement") -> "AlgebraElement":
        """Checked principal logarithm: every row must lie in the algebra span,
        be finite, lie within the injectivity radius and reproduce its matrix
        through exp to 1e-10 (relative)."""
        mat = g.matrix
        coords = self.matrix_coords(self._log_matrix(mat))
        if not np.all(np.isfinite(coords)):
            raise DomainError("log: non-finite algebra coordinates")
        if np.any(_norm(coords) > self.injectivity_radius):
            raise RangeError(
                f"log: element lies outside the injectivity radius "
                f"{self.injectivity_radius:.3f} of {self.name}"
            )
        gap = _frobenius(self.retract(self.exp_coords(coords)) - mat)
        if np.any(gap > 1e-10 * np.maximum(1.0, _frobenius(mat))):
            raise RangeError("log: exp(log(g)) does not reproduce g")
        return self.algebra(coords)

    def Ad(self, g: "GroupElement", xi: "AlgebraElement") -> "AlgebraElement":
        """Adjoint action g xi g^{-1}, expressed in algebra coordinates."""
        if xi.descriptor is not self:
            raise UsageError("Ad: element and algebra value use different descriptors")
        if self.ad_matrix_hook is not None:
            return self.algebra((self.ad_matrix_hook(g.matrix) @ xi.coords[..., None])[..., 0])
        conj = g.matrix @ self.algebra_matrix(xi.coords) @ g.inverse().matrix
        return self.algebra(self.matrix_coords(conj))

    def Ad_matrix(self, g) -> np.ndarray:
        """Matrix of Ad_g on algebra coordinates, shape (..., dim, dim).

        ``g`` is a GroupElement or a raw (..., m, m) array of group matrices.
        """
        mat = g.matrix if isinstance(g, GroupElement) else np.asarray(g, dtype=float)
        if self.ad_matrix_hook is not None:
            return self.ad_matrix_hook(mat)
        ginv = self.inverse(mat)
        cols = [self.matrix_coords(mat @ self.basis[j] @ ginv) for j in range(self.dim)]
        return np.stack(cols, axis=-1)

    def bracket(self, xi: "AlgebraElement", eta: "AlgebraElement") -> "AlgebraElement":
        if xi.descriptor is not eta.descriptor:
            raise UsageError("bracket: operands use different descriptors")
        return self.algebra(self.bracket_coords(xi.coords, eta.coords))

    def ad_matrix(self, coords) -> np.ndarray:
        """Matrix of ad_xi = [xi, .] on coordinates, shape (..., dim, dim)."""
        coords = np.asarray(coords, dtype=float)
        d = self.dim
        # the gufunc keeps a row's bits alone; one 2-D product would not when
        # an entry sums several constants
        return np.vecmat(coords, self._ad_rows).reshape(coords.shape[:-1] + (d, d))

    def bracket_coords(self, a, b):
        """Coordinate bracket on raw arrays; broadcasts over leading axes.  Adds
        (c_kij * a_i) * b_j of the nonzero constants into zeros, round by round:
        the bits of einsum("kij,...i,...j->...k"); an abelian algebra adds none."""
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        out = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]) + (self.dim,))
        for k, i, j, c in self._bracket_rounds:
            x = a[..., i]
            x *= c  # scaled in the gathered copy: one temporary fewer
            out[..., k] += x * b[..., j]
        return out

    # -- sampling ----------------------------------------------------------

    @property
    def coords_field(self):
        """The draws of `random_coords`: uniform on [-1, 1) per coordinate."""
        from .calculus import Uniform  # calculus imports this module
        return Uniform((self.dim,))

    def random_coords(self, rng):
        """The coordinates of a `random_algebra` draw: one row of `coords_field`."""
        from .calculus import sample_rows
        return sample_rows(rng, 1, self.coords_field)[0][0]

    def random_algebra(self, rng):
        return self.algebra(self.random_coords(rng))

    def random_element(self, rng):
        return self.exp(self.random_algebra(rng))

    # -- self-validation ----------------------------------------------------

    def validate(self):
        """Worst residuals of the structure constants against the basis
        commutators (all pairs in one product), of their antisymmetry and of
        the Jacobi identity."""
        c = self.structure_constants
        recon = np.tensordot(c, self.basis, axes=(0, 0))  # (d, d, m, m), [i, j]
        worst = float(np.max(np.abs(_commutators(self.basis) - recon)))
        anti = float(np.max(np.abs(c + np.swapaxes(c, 1, 2))))
        jac = np.einsum("mil,ljk->mijk", c, c)
        jacobi = jac + np.einsum("mjl,lki->mijk", c, c) + np.einsum("mkl,lij->mijk", c, c)
        return {"commutator": worst, "antisymmetry": anti,
                "jacobi": float(np.max(np.abs(jacobi)))}


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """Element of the Lie algebra in basis coordinates, or a (B, dim) stack of
    them that the array kernels treat row by row."""

    coords: np.ndarray
    descriptor: GroupDescriptor

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        if coords.ndim not in (1, 2) or coords.shape[-1] != self.descriptor.dim:
            raise UsageError(
                f"algebra coordinates have shape {coords.shape}, expected "
                f"({self.descriptor.dim},) or (B, {self.descriptor.dim})"
            )
        if not np.all(np.isfinite(coords)):
            raise DomainError("algebra coordinates must be finite")
        object.__setattr__(self, "coords", coords)

    @property
    def matrix(self):
        return self.descriptor.algebra_matrix(self.coords)


@dataclass(frozen=True, eq=False)
class GroupElement:
    """Group element stored as its embedding matrix, or a (B, m, m) stack of
    them that the array kernels treat row by row."""

    matrix: np.ndarray
    descriptor: GroupDescriptor
    check: bool = True

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", mat)
        if self.check:
            # a NaN passes no comparison, so finiteness is tested before measuring
            desc = self.descriptor
            finite = np.isfinite(mat).all(axis=(-2, -1))
            if finite.all():
                res = desc.membership_residual(mat)
                bad = np.logical_not(res <= desc.membership_tol)
                why = f"residual {np.max(res):.3e} > {desc.membership_tol:.1e}"
            else:
                bad, why = np.logical_not(finite), "non-finite entries"
            if _any(bad):
                rows = f"in rows {np.flatnonzero(bad).tolist()} " if mat.ndim == 3 else ""
                raise DescriptorError(f"matrix violates {desc.name} membership {rows}({why})")

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        if other.descriptor is not self.descriptor:
            raise UsageError("cannot multiply elements from different descriptors")
        return GroupElement(self.matrix @ other.matrix, self.descriptor, check=False)

    def inverse(self) -> "GroupElement":
        return GroupElement(self.descriptor.inverse(self.matrix), self.descriptor, check=False)


# ---------------------------------------------------------------------------
# standard descriptors
# ---------------------------------------------------------------------------


def _norm(v):
    """Euclidean norm over the last axis, one per row of a stack; a lone
    vector is a stack without leading axes and gives a numpy float.  The
    gufunc vecdot runs one dot per row, whatever the stack around it, so a
    row gets the bits it gets alone (those of a 1xk by kx1 product), and the
    thresholds below decide each row of a stack as they decide a lone one."""
    return np.sqrt(np.vecdot(v, v))


def _frobenius(m):
    """Frobenius norm over the last two axes, through `_norm`."""
    return _norm(m.reshape(m.shape[:-2] + (-1,)))


def _any(mask):
    """Whether a boolean mask (an array, or a lone numpy or Python bool) has a
    set entry; cheaper than ``mask.any()`` on both."""
    return np.count_nonzero(mask) > 0 if getattr(mask, "ndim", 0) else bool(mask)


_EYES = {}


def _eye(k):
    """Shared read-only identity matrix of size k."""
    eye = _EYES.get(k)
    if eye is None:
        eye = _EYES[k] = np.eye(k)
        eye.flags.writeable = False
    return eye


# 0-d operands of the hot kernels: a ufunc gives them the bits of the Python
# float and skips the conversion that a float costs on every call
_HALF, _ONE, _TINY, _EYE3 = np.array(0.5), np.array(1.0), np.array(1e-8), _eye(3)


def _eye_stack(k, lead):
    """A fresh identity matrix of size k for each index of the leading shape."""
    out = np.empty(tuple(lead) + (k, k))
    out[...] = _eye(k)
    return out


def _dexp_operator(descriptor, w_coords):
    """phi(ad_w) = (e^ad_w - 1) / ad_w, the matrix of the right-trivialized
    differential of exp at w, to 24 terms, or one per row of a (B, dim) stack
    of w.  A row stops on its first term of norm below 1e-18, that term
    included; later terms leave it as it is."""
    ad = descriptor.ad_matrix(w_coords)
    out = term = np.eye(descriptor.dim)
    live = np.ones(ad.shape[:-2], dtype=bool)
    for k in range(1, 25):
        term = term @ ad / (k + 1.0)
        out = np.where(live[..., None, None], out + term, out)
        live = live & (_frobenius(term) >= 1e-18)
        if not live.any():
            break
    return out


def _principal_logm(mat):
    """scipy's logm, made deterministic: its norm estimate draws from numpy's
    global RNG, so it runs under a fixed state and the caller's is restored."""
    import scipy.linalg  # only descriptors without a log hook pay for scipy
    state = np.random.get_state()
    try:
        np.random.seed(0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            m = scipy.linalg.logm(mat)
    finally:
        np.random.set_state(state)
    if np.max(np.abs(np.imag(m))) > 1e-9:
        raise RangeError("log: matrix is outside the principal branch")
    return np.real(m)


def _gram_defect(m):
    """m^T m - I and its Frobenius norm, per matrix of a stack.  A contiguous
    m^T gives the transposed view's bits in about half the time."""
    gram = np.ascontiguousarray(m.mT) @ m - _eye(m.shape[-1])
    return gram, _frobenius(gram)


def _orthogonal_retract(m, measure):
    """Closest special-orthogonal matrix per matrix of a stack, and m's residual
    if ``measure`` (else None).

    Near the group a couple of Newton polar iterations suffice and are much
    cheaper than the SVD, which remains the fallback for large drift.  One
    step leaves a Gram defect of -3/4 E^2 + 1/4 E^3, below 1e-16 when
    |E|_F <= 1e-8, so only rows above that can need the second."""
    eye = _eye(m.shape[-1])
    gram_defect, size = _gram_defect(m)
    r = m @ (eye - _HALF * gram_defect)
    rough = size > _TINY
    if np.count_nonzero(rough):
        defect, defect_size = _gram_defect(r)
        again = rough & (defect_size > 1e-14)
        if np.count_nonzero(again):
            r = np.where(again[..., None, None], r @ (eye - _HALF * defect), r)
        far = size >= 1e-4  # every far row is rough
        if np.count_nonzero(far):
            u, _, vt = np.linalg.svd(m[far])
            u[np.linalg.det(u @ vt) < 0, :, -1] *= -1.0
            r[far] = u @ vt
    return r, (size + abs(np.linalg.det(m) - _ONE) if measure else None)


# entries (2,1), (0,2), (1,0) of a hat matrix hold w1, w2, w3
_HAT_ROWS, _HAT_COLS = np.array([2, 0, 1]), np.array([1, 2, 0])


def _so3_exp(w, basis_flat):
    """Rodrigues formula per row of coordinates, with the series below 1e-8."""
    theta = np.sqrt(np.vecdot(w, w))[..., None, None]  # as `_norm`, one (1, 1) per row
    small = theta < _TINY
    series = np.count_nonzero(small)
    if series:
        theta = np.where(small, 1.0, theta)
    a = np.sin(theta) / theta
    b = (_ONE - np.cos(theta)) / (theta * theta)
    if series:
        a, b = np.where(small, 1.0, a), np.where(small, 0.5, b)
    # the hat's entries are single products with the 0/±1 basis: exact
    m = (w @ basis_flat).reshape(w.shape[:-1] + (3, 3))
    return _EYE3 + a * m + b * (m @ m)


def _so3_log(r):
    s = 0.5 * (r[..., _HAT_ROWS, _HAT_COLS] - r[..., _HAT_COLS, _HAT_ROWS])
    c = 0.5 * (np.trace(r, axis1=-2, axis2=-1) - 1.0)
    sn = _norm(s)
    theta = np.arctan2(sn, c)
    if np.any(theta > np.pi - 0.05):
        raise RangeError("log: rotation angle too close to pi for the principal branch")
    small = (theta < 1e-7)[..., None]
    sn = np.where(small, 1.0, sn[..., None])
    w = np.where(small, s * (1.0 + theta**2 / 6.0)[..., None], s * theta[..., None] / sn)
    out = np.zeros(r.shape)
    out[..., _HAT_ROWS, _HAT_COLS] = w
    out[..., _HAT_COLS, _HAT_ROWS] = -w
    return out


def so3_descriptor():
    """Rotation group of R^3 with the standard antisymmetric basis."""
    e1 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    e2 = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    e3 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    basis = np.stack([e1, e2, e3])
    flat = basis.reshape(3, 9)
    return GroupDescriptor(
        name="so3",
        basis=basis,
        structure_constants=derive_structure_constants(basis),
        injectivity_radius=np.pi - 0.1,
        retraction=_orthogonal_retract,
        exp_hook=lambda w: _so3_exp(w, flat),
        log_hook=_so3_log,
        # on the standard antisymmetric basis the adjoint matrix is the rotation
        ad_matrix_hook=lambda m: m,
        inverse_hook=lambda m: m.swapaxes(-1, -2).copy(),
    )


def _translation_matrix(c):
    """The identity with c in its last column, one per row of a stack of c."""
    k = c.shape[-1]
    out = _eye_stack(k + 1, c.shape[:-1])
    out[..., :k, k] = c
    return out


def _translation_retract(m, measure):
    k = m.shape[-1] - 1
    out = _translation_matrix(m[..., :k, k])
    if not measure:
        return out, None
    return out, (_frobenius(m[..., :k, :k] - _eye(k)) + _norm(m[..., k, :k])
                 + abs(m[..., k, k] - 1.0))


def translation_descriptor(m):
    """Additive group (R^m, +) embedded as affine translation matrices."""
    basis = np.zeros((m, m + 1, m + 1))
    for i in range(m):
        basis[i, i, m] = 1.0
    return GroupDescriptor(
        name=f"translation{m}",
        basis=basis,
        structure_constants=np.zeros((m, m, m)),
        injectivity_radius=np.inf,
        retraction=_translation_retract,
        exp_hook=_translation_matrix,
        log_hook=lambda g: g - _eye(m + 1),
        ad_matrix_hook=lambda mat: _eye_stack(m, mat.shape[:-2]),
        inverse_hook=lambda mat: _translation_matrix(-mat[..., :-1, -1]),
    )
