"""Chart-domain calculus: curves, algebra-valued forms, finite differences.

Everything operates on plain numpy arrays inside an open box chart.  Default
finite-difference step follows cbrt(machine epsilon) scaling, which balances
truncation and roundoff for second-order central stencils.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, UsageError
from .groups import AlgebraElement, GroupDescriptor, _norm

__all__ = ["ChartDomain", "BaseCurve", "FiberMap", "Polynomial", "AlgebraOneForm",
           "TwoIndexAlgebraForm", "fd_step", "central_difference", "Uniform", "Normal",
           "sample_rows", "finite_diff_jacobian", "directional_derivative", "numerical_bracket"]

_EPS_CBRT = float(np.finfo(float).eps ** (1.0 / 3.0))


def fd_step(x, h=None):
    """Default central-difference step at x, or one per row of an (R, N) stack
    of points, each from that row's norm alone; an explicit ``h``, one number
    or one per row, replaces it but in NaN rows."""
    default = _EPS_CBRT * np.maximum(1.0, _norm(np.asarray(x, dtype=float)))
    return default if h is None else np.where(np.isnan(h), default, h)


def central_difference(f, eps):
    """(f(eps) - f(-eps)) / (2 eps) for ``f`` mapping a step to an array,
    evaluating f(eps) first: the one finite-difference stencil of the
    package; each caller owns its step.
    """
    plus = f(eps)
    minus = f(-eps)
    return (plus - minus) / (2 * eps)


# The fields of `sample_rows`: draws uniform on [low, high), mapped from the
# generator's doubles u as ``low + (high - low) * u`` like ``rng.uniform``,
# and standard normal draws.
Uniform = namedtuple("Uniform", "shape low high", defaults=(-1.0, 1.0))
Normal = namedtuple("Normal", "shape")


def sample_rows(rng, count, *fields):
    """``count`` rows of the ``fields``, one array each with a leading row axis,
    in the RNG order of a loop that draws a row's fields in turn: a row takes
    one ``rng.random`` call per run of uniform fields and one
    ``rng.standard_normal`` call per run of normal fields, a stack with no
    normal field one call.  A count below 1 raises: no check may pass on an
    empty sample."""
    if count < 1:
        raise UsageError(f"samples must be at least 1, got {count}")
    cuts = list(itertools.accumulate((math.prod(f.shape) for f in fields), initial=0))
    normal = [isinstance(f, Normal) for f in fields]
    if any(normal):
        block = np.empty((count, cuts[-1]))
        edges = [0] + [i for i in range(1, len(fields)) if normal[i] != normal[i - 1]]
        runs = [(rng.standard_normal if normal[a] else rng.random, cuts[a], cuts[b])
                for a, b in zip(edges, edges[1:] + [len(fields)])]
        for row in block:
            for draw, lo, hi in runs:
                draw(out=row[lo:hi])
    else:
        block = rng.random((count, cuts[-1]))
    parts = [block[:, lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    return tuple(np.reshape(f.low + (f.high - f.low) * p if isinstance(f, Uniform) else p.copy(),
                            (count,) + tuple(f.shape)) for f, p in zip(fields, parts))


@dataclass(frozen=True)
class ChartDomain:
    """Open box in R^n used as a trivializing chart domain."""

    lower: np.ndarray
    upper: np.ndarray
    label: str = "chart"

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise UsageError("chart bounds must be 1-d arrays of equal length")
        if not np.all(lo < hi):
            raise UsageError("chart lower bounds must be strictly below upper bounds")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self):
        return self.lower.shape[0]

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        return bool(np.all(x > self.lower) and np.all(x < self.upper))

    def require(self, x):
        if not self.contains(x):
            raise DomainError(f"point {np.asarray(x)} is outside chart {self.label}")

    @property
    def field(self):
        """The draws of a sample: fractions of the span, 0.05 in from each face."""
        return Uniform((self.dim,), 0.05, 0.95)

    def place(self, fractions):
        """The points at ``fractions`` (..., n) of the span, drawn from `field`."""
        return self.lower + (self.upper - self.lower) * fractions

    def sample(self, rng):
        return self.place(sample_rows(rng, 1, self.field)[0][0])

    def center(self):
        return 0.5 * (self.lower + self.upper)


def _times(t, ndim):
    """A 1-D array of times or steps with ``ndim`` trailing unit axes; a lone one as it is."""
    return np.reshape(t, np.shape(t) + (1,) * ndim) if np.ndim(t) else t


@dataclass
class BaseCurve:
    """Curve t -> x(t) in the chart with its analytic velocity.

    A family of C curves on a common interval is one BaseCurve whose position
    and velocity return (C, n); a lone curve is a family without the leading
    axis.  Position and velocity also take a 1-D array of T times and return
    (T, n) or (T, C, n), row k bit-identical to time k alone.
    """

    a: float
    b: float
    position: Callable[[float], np.ndarray]
    velocity: Callable[[float], np.ndarray]
    label: str = "curve"

    def __post_init__(self):
        if not self.b > self.a:
            raise UsageError("curve interval must satisfy a < b")

    def validate(self, chart: Optional[ChartDomain] = None):
        """Worst gap between the velocity and a central difference of the
        position at 20 sampled times; a sampled point outside ``chart`` raises."""
        ts = np.linspace(self.a, self.b, 20)
        h = 1e-6 * (self.b - self.a)
        for x in self.position(ts) if chart is not None else ():
            chart.require(x)
        tt = np.clip(ts, self.a + h, self.b - h)
        gap = central_difference(lambda s: self.position(tt + s), h) - self.velocity(tt)
        return float(np.max(_norm(gap.reshape(len(ts), -1))))

    @staticmethod
    def line(start, end, interval=(0.0, 1.0), label="line"):
        """The straight segment: a wiggle with zero amplitude, whose first two
        terms are the line and whose zero terms add nothing."""
        return BaseCurve.wiggle(start, end, np.zeros(np.shape(start)), interval, label=label)

    @staticmethod
    def loop(center, radius, interval=(0.0, 1.0), axes=(0, 1), label="loop"):
        """Closed circle in the plane of two different axes; a (C, n) centre gives C circles."""
        center = np.asarray(center, dtype=float)
        a, b = interval
        span = b - a
        i, j = axes
        if i == j:
            raise UsageError(f"loop axes must be two different axes, got {tuple(axes)}")

        def pos(t):
            s = _times(2.0 * np.pi * (t - a) / span, center.ndim - 1)
            x = np.broadcast_to(center, np.shape(t) + center.shape).copy()
            x[..., i] += radius * np.cos(s)
            x[..., j] += radius * np.sin(s)
            return x

        def vel(t):
            s = _times(2.0 * np.pi * (t - a) / span, center.ndim - 1)
            v = np.zeros(np.shape(t) + center.shape)
            v[..., i] = -radius * np.sin(s) * 2.0 * np.pi / span
            v[..., j] = radius * np.cos(s) * 2.0 * np.pi / span
            return v

        return BaseCurve(a, b, pos, vel, label=label)

    @staticmethod
    def wiggle(start, end, amplitudes, interval=(0.0, 1.0), label="wiggle"):
        """Line plus sine perturbations vanishing at both endpoints.

        ``start``, ``end`` and ``amplitudes`` of shape (n,) give one curve;
        of shape (C, n) they give a family of C curves whose position and
        velocity have shape (C, n), row c bit-identical to curve c alone.
        """
        start = np.asarray(start, dtype=float)
        end = np.asarray(end, dtype=float)
        amp = np.asarray(amplitudes, dtype=float)
        a, b = interval
        span = b - a
        base = (end - start) / span
        w = np.arange(start.shape[-1])

        def pos(t):
            s = _times((t - a) / span, start.ndim)
            return (1.0 - s) * start + s * end + amp * np.sin(np.pi * s) * np.sin(
                2.0 * np.pi * s + w
            )

        def vel(t):
            s = _times((t - a) / span, start.ndim)
            phase = 2 * np.pi * s + w
            d = (
                np.pi * np.cos(np.pi * s) * np.sin(phase)
                + 2 * np.pi * np.sin(np.pi * s) * np.cos(phase)
            )
            return base + amp * d / span

        return BaseCurve(a, b, pos, vel, label=label)

    def repeat(self, k):
        """The family that rides every curve of this one k times: for a
        family of C curves, row j C + c follows curve c.  A lone curve is
        returned as it is, since every row of a stack rides it already."""
        if np.ndim(self.position(self.a)) == 1:
            return self
        pos, vel = self.position, self.velocity
        return BaseCurve(self.a, self.b, lambda t: np.concatenate((pos(t),) * k, axis=-2),
                         lambda t: np.concatenate((vel(t),) * k, axis=-2), label=self.label)


class FiberMap:
    """A map from (..., m, m) fiber matrices whose base-point-dependent parts
    are computed once: ``m(fibers)`` is ``apply(fibers, *parts)``.  When the
    points have a leading stage axis, so does every part, and ``m[k]`` is the
    map at stage k, with every part, FiberMaps included, sliced along it.
    """

    def __init__(self, apply, *parts):
        self.apply, self.parts = apply, parts

    def __call__(self, fibers):
        return self.apply(fibers, *self.parts)

    def __getitem__(self, k):
        return FiberMap(self.apply, *(part[k] for part in self.parts))


class Polynomial:
    """Multivariate polynomial from a coefficient table keyed by exponent strings.

    Table keys look like ``"2,0"`` (x1^2) or ``"1,1"`` (x1 x2); values are the
    real coefficients: the exchange format for connection coefficients in
    scenario configs.  Tables are compiled once into (output slot,
    coefficient, factor axes) terms, a power x^e being e factors of x, summed
    per slot in sorted exponent order, so an entry of ``Polynomial.array`` is
    bit-identical to the scalar polynomial of its table.  Points of shape
    (..., n) give values of shape (...,) + shape, each bit-identical to that
    point alone: a lone point is a batch without leading axes, and a lone
    point of a scalar polynomial gives a numpy float.
    """

    def __init__(self, table, dim):
        self._compile({(): table}, dim, ())

    @classmethod
    def array(cls, entries, dim, shape):
        """Array-valued polynomial from {index tuple: table}; other entries are zero."""
        poly = cls.__new__(cls)
        poly._compile(entries, dim, tuple(shape))
        return poly

    def _compile(self, entries, dim, shape):
        self.dim = int(dim)
        self.shape = shape
        terms = []
        for index, table in entries.items():
            if len(index) != len(shape) or not all(0 <= i < s for i, s in zip(index, shape)):
                raise UsageError(f"entry index {index} does not fit shape {shape}")
            slot = int(np.ravel_multi_index(index, shape)) if shape else 0
            for key, coeff in table.items():
                exps = tuple(int(p) for p in str(key).split(","))
                if len(exps) != self.dim:
                    raise UsageError(f"exponent key {key!r} does not match dimension {dim}")
                terms.append((slot, exps, float(coeff)))
        self.terms = [(slot, coeff, [ax for ax, e in enumerate(exps) for _ in range(e)])
                      for slot, exps, coeff in sorted(terms)]
        self._size = int(np.prod(shape, dtype=int))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        flat = x.reshape(-1, x.shape[-1])
        values = np.ascontiguousarray(flat.T)  # one column per axis
        out = [0.0] * self._size
        for slot, coeff, factors in self.terms:
            term = coeff
            for axis in factors:
                term = term * values[axis]
            out[slot] = out[slot] + term
        batch = np.empty((len(flat), self._size))
        for slot, value in enumerate(out):
            batch[:, slot] = value
        return batch.reshape(x.shape[:-1] + self.shape)[()]

    def partial(self, mu):
        """Analytic partial derivative as a new Polynomial of the same shape."""
        entries = {}
        for slot, coeff, factors in self.terms:
            e = factors.count(mu)
            if e == 0:
                continue
            exps = [factors.count(ax) for ax in range(self.dim)]
            exps[mu] = e - 1
            key = ",".join(str(p) for p in exps)
            table = entries.setdefault(tuple(map(int, np.unravel_index(slot, self.shape))), {})
            table[key] = table.get(key, 0.0) + coeff * e
        return Polynomial.array(entries, self.dim, self.shape)


class AlgebraOneForm:
    """Algebra-valued 1-form on the chart: (x, u) -> xi, linear in u."""

    def __init__(self, descriptor: GroupDescriptor, coefficients: Callable[[np.ndarray], np.ndarray]):
        # coefficients(x) returns an (n, dim_g) array: row mu holds the value on e_mu
        self.descriptor = descriptor
        self.coefficients = coefficients

    def coefficient_array(self, x):
        """(..., n, dim) at points (..., n); coefficients that ignore the
        leading axes of x are broadcast over them."""
        x = np.asarray(x, dtype=float)
        arr = np.asarray(self.coefficients(x), dtype=float)
        return np.broadcast_to(arr, x.shape[:-1] + arr.shape[-2:])

    def coords(self, x, u):
        """Coordinates (..., dim) of the value on u at x, for any leading axes."""
        arr = self.coefficient_array(x)
        u = np.asarray(u, dtype=float)
        return (u[..., None, :] @ arr)[..., 0, :]

    def __call__(self, x, u) -> AlgebraElement:
        """Value on u at x; points x and vectors u of shape (R, n) give an
        (R, dim) stack."""
        return self.descriptor.algebra(self.coords(x, u))


class TwoIndexAlgebraForm:
    """Algebra-valued bilinear form (x, u, v) -> xi."""

    def __init__(self, descriptor, coefficients):
        # coefficients(x) returns an (n, n, dim_g) array
        self.descriptor = descriptor
        self.coefficients = coefficients

    def coefficient_array(self, x):
        return np.asarray(self.coefficients(np.asarray(x, dtype=float)), dtype=float)

    def __call__(self, x, u, v) -> AlgebraElement:
        arr = self.coefficient_array(x)
        out = np.einsum("m,mnk,n->k", np.asarray(u, float), arr, np.asarray(v, float))
        return self.descriptor.algebra(out)


def finite_diff_jacobian(f, x, h=None, chart: Optional[ChartDomain] = None):
    """Central-difference Jacobian of f: R^n -> R^m, error O(h^2)."""
    x = np.asarray(x, dtype=float)
    step = fd_step(x, h)

    def shifted(i, s):
        probe = x.copy()
        probe[i] += s
        return probe

    if chart is not None:
        for i in range(x.size):
            for s in (+step, -step):
                chart.require(shifted(i, s))
    return np.column_stack([central_difference(lambda s: np.asarray(f(shifted(i, s)), float), step)
                            for i in range(x.size)])


def directional_derivative(f, x, v, h=None):
    """Central difference of f along direction v (not normalized); points x
    and directions v of shape (R, N) give one row each, stepped by that row's
    own x, v and `fd_step` h.  A zero direction differences f(x) with itself,
    to exactly 0."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    step = _times(fd_step(x, h) / np.maximum(1.0, _norm(v)), 1)
    return central_difference(lambda s: np.asarray(f(x + s * v), float), step)


def numerical_bracket(v1, v2, z, h=None):
    """Lie bracket [v1, v2](z) of vector fields on R^N by central differences.

    [v1, v2] = (Dv2) v1 - (Dv1) v2, each directional derivative evaluated with
    a second-order stencil.  Points z of shape (R, N), for fields that map such
    stacks row by row, give one bracket per row, each at its `fd_step` h.
    """
    z = np.asarray(z, dtype=float)
    a = np.asarray(v1(z), dtype=float)
    b = np.asarray(v2(z), dtype=float)
    d_v2_along_v1 = directional_derivative(v2, z, a, h)
    d_v1_along_v2 = directional_derivative(v1, z, b, h)
    return d_v2_along_v1 - d_v1_along_v2
