"""Chart-domain calculus: curves, algebra-valued forms, finite differences.

Everything operates on plain numpy arrays inside an open box chart.  Default
finite-difference step follows cbrt(machine epsilon) scaling, which balances
truncation and roundoff for second-order central stencils.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, UsageError
from .groups import AlgebraElement, GroupDescriptor

__all__ = [
    "ChartDomain",
    "BaseCurve",
    "Polynomial",
    "AlgebraOneForm",
    "TwoIndexAlgebraForm",
    "fd_step",
    "central_difference",
    "finite_diff_jacobian",
    "directional_derivative",
    "numerical_bracket",
]

_EPS_CBRT = float(np.finfo(float).eps ** (1.0 / 3.0))


def fd_step(x, h=None):
    """Default central-difference step at x."""
    if h is not None:
        return float(h)
    return _EPS_CBRT * max(1.0, float(np.linalg.norm(x)))


def central_difference(f, eps):
    """(f(eps) - f(-eps)) / (2 eps), evaluating f(eps) first: the one
    finite-difference stencil of the package; each caller owns its step.
    ``f`` maps a step to an array or to a tuple of arrays (such as the base
    point and fiber matrix of a total-space curve), differenced entry by entry.
    """
    plus = f(eps)
    minus = f(-eps)
    if isinstance(plus, tuple):
        return tuple((p - m) / (2 * eps) for p, m in zip(plus, minus))
    return (plus - minus) / (2 * eps)


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

    def contains(self, x, margin=0.0):
        x = np.asarray(x, dtype=float)
        return bool(np.all(x > self.lower + margin) and np.all(x < self.upper - margin))

    def require(self, x, margin=0.0):
        if not self.contains(x, margin=margin):
            raise DomainError(f"point {np.asarray(x)} is outside chart {self.label}")

    def sample(self, rng, margin=0.05):
        span = self.upper - self.lower
        return self.lower + span * rng.uniform(margin, 1.0 - margin, size=self.dim)

    def center(self):
        return 0.5 * (self.lower + self.upper)


@dataclass
class BaseCurve:
    """Curve t -> x(t) in the chart with its analytic velocity.

    A family of C curves on a common interval is one BaseCurve whose position
    and velocity return (C, n); a lone curve is a family without the leading
    axis.
    """

    a: float
    b: float
    position: Callable[[float], np.ndarray]
    velocity: Callable[[float], np.ndarray]
    label: str = "curve"

    def __post_init__(self):
        if not self.b > self.a:
            raise UsageError("curve interval must satisfy a < b")

    def validate(self, chart: Optional[ChartDomain] = None, samples=20, tol=1e-6):
        """Containment in the chart plus velocity consistency at sampled times."""
        ts = np.linspace(self.a, self.b, samples)
        h = 1e-6 * (self.b - self.a)
        worst = 0.0
        for t in ts:
            x = np.asarray(self.position(t), dtype=float)
            if chart is not None:
                chart.require(x)
            tt = min(max(t, self.a + h), self.b - h)
            fd = central_difference(lambda s: np.asarray(self.position(tt + s)), h)
            worst = max(worst, float(np.linalg.norm(fd - np.asarray(self.velocity(tt)))))
        if worst > tol:
            raise UsageError(
                f"curve {self.label}: velocity inconsistent with position (residual {worst:.2e})"
            )
        return worst

    @staticmethod
    def line(start, end, interval=(0.0, 1.0), label="line"):
        start = np.asarray(start, dtype=float)
        end = np.asarray(end, dtype=float)
        a, b = interval
        span = b - a
        rate = (end - start) / span

        def pos(t):
            s = (t - a) / span
            return (1.0 - s) * start + s * end

        def vel(t):
            return rate.copy()

        return BaseCurve(a, b, pos, vel, label=label)

    @staticmethod
    def loop(center, radius, interval=(0.0, 1.0), axes=(0, 1), label="loop"):
        """Closed circle in the (axes) coordinate plane."""
        center = np.asarray(center, dtype=float)
        a, b = interval
        span = b - a
        i, j = axes

        def pos(t):
            s = 2.0 * np.pi * (t - a) / span
            x = center.copy()
            x[i] += radius * np.cos(s)
            x[j] += radius * np.sin(s)
            return x

        def vel(t):
            s = 2.0 * np.pi * (t - a) / span
            v = np.zeros_like(center)
            v[i] = -radius * np.sin(s) * 2.0 * np.pi / span
            v[j] = radius * np.cos(s) * 2.0 * np.pi / span
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

        # scalar trigonometry through math: a numpy call per scalar costs more
        def pos(t):
            s = (t - a) / span
            return (1.0 - s) * start + s * end + amp * math.sin(np.pi * s) * np.sin(
                2.0 * np.pi * s + w
            )

        def vel(t):
            s = (t - a) / span
            phase = 2 * np.pi * s + w
            d = (
                np.pi * math.cos(np.pi * s) * np.sin(phase)
                + 2 * np.pi * math.sin(np.pi * s) * np.cos(phase)
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
        return BaseCurve(self.a, self.b, lambda t: np.concatenate((pos(t),) * k),
                         lambda t: np.concatenate((vel(t),) * k), label=self.label)


class Polynomial:
    """Multivariate polynomial from a coefficient table keyed by exponent strings.

    Table keys look like ``"2,0"`` (x1^2) or ``"1,1"`` (x1 x2); values are the
    real coefficients: the exchange format for connection coefficients in
    scenario configs.  Tables are compiled once into (output slot,
    coefficient, factor axes) terms, a power x^e being e factors of x, summed
    per slot in sorted exponent order, so an entry of ``Polynomial.array`` is
    bit-identical to the scalar polynomial of its table.  A point of shape
    (n,) gives one value; a batch of points (R, n) gives R values along a
    leading axis, each row bit-identical to that point alone.
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
        # per-axis values: floats for one point, columns for a batch of points
        values = x.tolist() if x.ndim == 1 else list(np.ascontiguousarray(x.T))
        out = [0.0] * self._size
        for slot, coeff, factors in self.terms:
            term = coeff
            for axis in factors:
                term = term * values[axis]
            out[slot] = out[slot] + term
        if x.ndim == 1:
            return np.array(out).reshape(self.shape) if self.shape else out[0]
        batch = np.empty((len(x), self._size))
        for slot, value in enumerate(out):
            batch[:, slot] = value
        return batch.reshape(x.shape[:1] + self.shape)

    def partial(self, mu):
        """Analytic partial derivative of a scalar polynomial as a new Polynomial."""
        table = {}
        for _, coeff, factors in self.terms:
            e = factors.count(mu)
            if e == 0:
                continue
            exps = [factors.count(ax) for ax in range(self.dim)]
            exps[mu] = e - 1
            key = ",".join(str(p) for p in exps)
            table[key] = table.get(key, 0.0) + coeff * e
        return Polynomial(table, self.dim)

    @staticmethod
    def constant(value, dim):
        return Polynomial({",".join(["0"] * dim): value}, dim)


class AlgebraOneForm:
    """Algebra-valued 1-form on the chart: (x, u) -> xi, linear in u."""

    def __init__(self, descriptor: GroupDescriptor, coefficients: Callable[[np.ndarray], np.ndarray], label="A"):
        # coefficients(x) returns an (n, dim_g) array: row mu holds the value on e_mu
        self.descriptor = descriptor
        self.coefficients = coefficients
        self.label = label

    def coefficient_array(self, x):
        return np.asarray(self.coefficients(np.asarray(x, dtype=float)), dtype=float)

    def __call__(self, x, u) -> AlgebraElement:
        """Value on u at x; points x and vectors u of shape (R, n) give an
        (R, dim) stack."""
        arr = self.coefficient_array(x)
        u = np.asarray(u, dtype=float)
        return self.descriptor.algebra((u[..., None, :] @ arr)[..., 0, :])

    @staticmethod
    def zero(descriptor, n):
        return AlgebraOneForm(descriptor, lambda x: np.zeros((n, descriptor.dim)), label="0")

    @staticmethod
    def constant(descriptor, array):
        array = np.asarray(array, dtype=float)
        return AlgebraOneForm(descriptor, lambda x: array)

    @staticmethod
    def from_polynomials(descriptor, tables, dim):
        """tables[mu][k] is a Polynomial coefficient table for dx^mu x E_k."""
        entries = {(mu, k): table[str(k)] for mu, table in enumerate(tables)
                   for k in range(descriptor.dim) if str(k) in table}
        return AlgebraOneForm(descriptor,
                              Polynomial.array(entries, dim, (len(tables), descriptor.dim)))

    def validate_linearity(self, rng, chart, samples=20, tol=1e-10):
        worst = 0.0
        for _ in range(samples):
            x = chart.sample(rng)
            u = rng.standard_normal(chart.dim)
            v = rng.standard_normal(chart.dim)
            a, b = rng.standard_normal(2)
            lhs = self(x, a * u + b * v).coords
            rhs = a * self(x, u).coords + b * self(x, v).coords
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        if worst > tol:
            raise UsageError(f"1-form {self.label} is not linear in u (residual {worst:.2e})")
        return worst


class TwoIndexAlgebraForm:
    """Algebra-valued bilinear form (x, u, v) -> xi."""

    def __init__(self, descriptor, coefficients, label="B"):
        # coefficients(x) returns an (n, n, dim_g) array
        self.descriptor = descriptor
        self.coefficients = coefficients
        self.label = label

    def coefficient_array(self, x):
        return np.asarray(self.coefficients(np.asarray(x, dtype=float)), dtype=float)

    def __call__(self, x, u, v) -> AlgebraElement:
        arr = self.coefficient_array(x)
        out = np.einsum("m,mnk,n->k", np.asarray(u, float), arr, np.asarray(v, float))
        return self.descriptor.algebra(out)

    def validate_bilinearity(self, rng, chart, samples=20, tol=1e-10):
        worst = 0.0
        for _ in range(samples):
            x = chart.sample(rng)
            u, v, w = (rng.standard_normal(chart.dim) for _ in range(3))
            a, b = rng.standard_normal(2)
            lhs = self(x, a * u + b * w, v).coords
            rhs = a * self(x, u, v).coords + b * self(x, w, v).coords
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
            lhs = self(x, u, a * v + b * w).coords
            rhs = a * self(x, u, v).coords + b * self(x, u, w).coords
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        if worst > tol:
            raise UsageError(f"2-form {self.label} is not bilinear (residual {worst:.2e})")
        return worst


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
    """Central difference of f along direction v (not normalized)."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    vn = np.linalg.norm(v)
    if vn == 0.0:
        probe = np.asarray(f(x), float)
        return np.zeros_like(probe)
    step = fd_step(x, h) / max(1.0, vn)
    return central_difference(lambda s: np.asarray(f(x + s * v), float), step)


def numerical_bracket(v1, v2, z, h=None):
    """Lie bracket [v1, v2](z) of vector fields on R^N by central differences.

    [v1, v2] = (Dv2) v1 - (Dv1) v2, each directional derivative evaluated with
    a second-order stencil.
    """
    z = np.asarray(z, dtype=float)
    a = np.asarray(v1(z), dtype=float)
    b = np.asarray(v2(z), dtype=float)
    d_v2_along_v1 = directional_derivative(v2, z, a, h)
    d_v1_along_v2 = directional_derivative(v1, z, b, h)
    return d_v2_along_v1 - d_v1_along_v2
