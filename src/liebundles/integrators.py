"""Group-aware initial value problems.

`integrate_stack` solves right-trivialized equations g' = v_t(g) g for a
(B, m, m) stack of fibers by a 4th-order Runge--Kutta--Munthe-Kaas scheme:
each step works in the algebra, maps back through the group exponential, and
retracts onto the group so drift stays at roundoff over long horizons.  Every
row is its own trajectory and keeps its own guards, while the time-dependent
part of the right-hand side is computed once per stage time for the whole
stack.  `integrate_on_group` is the one-element form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import InstabilityError, StiffnessError, UsageError
from .groups import AlgebraElement, GroupDescriptor, GroupElement, _frobenius

__all__ = ["TransportResult", "integrate_stack", "integrate_on_group", "integrate_linear"]

_BLOWUP_FACTOR = 1e6
_MIN_RELATIVE_STEP = 1e-13


@dataclass(frozen=True)
class TransportResult:
    """Endpoints of a group-valued integration (``element`` holds one per row)
    with one error estimate and membership residual per row, or one float each
    for a single (m, m) matrix."""

    element: GroupElement
    error_estimate: Optional[Union[float, np.ndarray]]
    steps: int
    membership_residual: Union[float, np.ndarray]


def _dexpinv(desc: GroupDescriptor, u, v):
    """Truncated inverse right-trivialized differential of exp at u, applied to v.

    v - [u,v]/2 + [u,[u,v]]/12 suffices for a 4th-order scheme since u = O(h);
    both brackets come from one ad_u matrix.
    """
    ad = desc.ad_matrix(u)
    uv = ad @ v[..., None]
    return v - 0.5 * uv[..., 0] + (ad @ uv)[..., 0] / 12.0


def _finite(fibers, t):
    """``fibers`` once every row is finite, else an InstabilityError naming the
    rows: a NaN passes no residual test, and the right-hand side must not see one."""
    finite = np.isfinite(fibers)
    if not finite.all():
        rows = np.flatnonzero(~finite.all(axis=(-2, -1))).tolist()
        raise InstabilityError(f"integration produced non-finite fibers in rows {rows} at t={t:.4f}")
    return fibers


# a diverging run overflows on its way to the non-finite fibers `_finite` reports
@np.errstate(over="ignore", invalid="ignore")
def _run(field, g, desc, t0, t1, n_steps):
    h = (t1 - t0) / n_steps
    limit = _BLOWUP_FACTOR * max(desc.membership_tol, 1e-12)
    exp = desc.exp_coords
    f_start = field(t0)
    for k in range(n_steps):
        t = t0 + k * h
        # the stage-4 time is the next step's stage-1 time, so its field is reused
        f_mid, f_end = field(t + 0.5 * h), field(t0 + (k + 1) * h)
        k1 = f_start(g)
        u2 = 0.5 * h * k1
        k2 = _dexpinv(desc, u2, f_mid(_finite(exp(u2) @ g, t + 0.5 * h)))
        u3 = 0.5 * h * k2
        k3 = _dexpinv(desc, u3, f_mid(_finite(exp(u3) @ g, t + 0.5 * h)))
        u4 = h * k3
        k4 = _dexpinv(desc, u4, f_end(_finite(exp(u4) @ g, t + h)))
        omega = (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        g = _finite(exp(omega) @ g, t + h)
        res = desc.membership_residual(g)
        if np.count_nonzero(res > limit):
            raise InstabilityError(
                f"membership residual blew up to {np.max(res):.3e} in row "
                f"{int(np.argmax(res))} at t={t + h:.4f}"
            )
        g = desc.retract(g)
        f_start = f_end
    return g


def integrate_stack(
    field: Callable[[float], Callable[[np.ndarray], np.ndarray]],
    descriptor: GroupDescriptor,
    g0,
    interval,
    step=1e-2,
    with_error_estimate=False,
):
    """Solve g' = v_t(g) g for each row of a (B, m, m) stack of fibers.

    ``field(t)`` returns v_t: a function from a stack of fiber matrices to
    their right-trivialized velocities, (B, m, m) -> (B, dim).  It is called
    once per stage time (three per step, one shared with the next step).
    Returns one TransportResult: the endpoints retracted onto the group, with
    each row's step-halving error estimate (Frobenius distance to the
    half-step solution) when requested.  A single (m, m) matrix is a stack
    without the leading axis.
    """
    t0, t1 = float(interval[0]), float(interval[1])
    if not t1 > t0:
        raise UsageError("integration interval must satisfy t0 < t1")
    span = t1 - t0
    if step <= 0 or step < _MIN_RELATIVE_STEP * span:
        raise StiffnessError(f"step {step} underflows for interval of length {span}")
    g0 = np.asarray(g0, dtype=float)
    m = descriptor.matrix_dim
    if g0.ndim not in (2, 3) or g0.shape[-2:] != (m, m):
        raise UsageError(f"fibers have shape {g0.shape}, expected (B, {m}, {m}) or ({m}, {m})")
    n = max(1, int(np.ceil(span / step)))
    end = _run(field, g0, descriptor, t0, t1, n)
    fine = _run(field, g0, descriptor, t0, t1, 2 * n) if with_error_estimate else None
    return TransportResult(
        element=GroupElement(end, descriptor, check=False),
        error_estimate=None if fine is None else _frobenius(end - fine),
        steps=n,
        membership_residual=descriptor.membership_residual(end),
    )


def integrate_on_group(
    rhs: Callable[[float, GroupElement], AlgebraElement],
    g0: GroupElement,
    interval,
    step=1e-2,
    with_error_estimate=True,
) -> TransportResult:
    """Solve g' = rhs(t, g) g (right-trivialized velocity in the algebra) for
    one element by `integrate_stack`."""
    desc = g0.descriptor

    def field(t):
        def velocity(g):
            val = rhs(t, GroupElement(g, desc, check=False))
            return val.coords if isinstance(val, AlgebraElement) else np.asarray(val, float)

        return velocity

    return integrate_stack(field, desc, g0.matrix, interval, step, with_error_estimate)


def integrate_linear(matrix_fn, v0, interval, step=1e-2):
    """Classical RK4 for linear systems v' = K(t) v on coordinate vectors.

    ``v0`` may be a (d, B) array: K @ V acts column by column, so B columns
    share each K.  K is evaluated once per stage time, as in `integrate_stack`.
    """
    t0, t1 = float(interval[0]), float(interval[1])
    if not t1 > t0:
        raise UsageError("integration interval must satisfy t0 < t1")
    span = t1 - t0
    if step <= 0 or step < _MIN_RELATIVE_STEP * span:
        raise StiffnessError(f"step {step} underflows for interval of length {span}")
    n = max(1, int(np.ceil(span / step)))
    h = span / n
    v = np.asarray(v0, dtype=float).copy()
    k_start = matrix_fn(t0)
    for k in range(n):
        t = t0 + k * h
        k_mid, k_end = matrix_fn(t + 0.5 * h), matrix_fn(t0 + (k + 1) * h)
        k1 = k_start @ v
        k2 = k_mid @ (v + 0.5 * h * k1)
        k3 = k_mid @ (v + 0.5 * h * k2)
        k4 = k_end @ (v + h * k3)
        v = v + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        k_start = k_end
        if not np.all(np.isfinite(v)):
            raise InstabilityError("linear integration produced non-finite values")
    return v
