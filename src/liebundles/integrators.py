"""Group-aware initial value problems.

`integrate_stack` solves right-trivialized equations g' = v_t(g) g for a
(B, m, m) stack of fibers by a 4th-order Runge--Kutta--Munthe-Kaas scheme:
each step works in the algebra, maps back through the group exponential of
its coordinates, and retracts onto the group so drift stays at roundoff over
long horizons; the one retraction call per step also measures the membership
residual the blow-up guard reads.  Every row is its own trajectory and keeps
its own guards.  The time-dependent part of the right-hand side is a base
schedule: the field is asked once per run, for all 2N+1 stage times of its N
steps at once, and the step loop then does only fiber work: per step 4 exps,
3 dexp^-1 on a non-abelian fiber, 1 retraction, 4 stage maps, 4 finite sums.
`integrate_linear` asks its K(t) the same way, builds every step's RK4
increment matrix in one batched pass and then does one product per step.
`integrate_on_group` is the one-element form.

Checks are plans: generators that yield one list of requests, once, and are
sent one answer each.  A `Transport` request carries k fibers of one shape
along a curve at a step by the field ``builder(x, u)`` and is answered with
their k endpoints.  `planned` drives a plan and `together` joins several
into one round.  `transport` runs a round's transports as one RKMK4 loop per
fiber descriptor (`_run`), with one leg per interval and step, each with its
own h; `integrate_stack` is a loop of one leg.  The loop gathers its rows
once into builder-major order (a builder's rows over every leg sit together,
most steps first), so each stage calls each builder once, and it runs in
epochs that end where a leg ends: an epoch asks each builder once, each
leg's rows at their own stage times, and a leg's rows leave after its last
step, scattered back through one leg-major rank.  Two per-stage shortcuts
spare numpy dispatch at every stage: a lone builder's maps run as they are,
and rows that share one h step with 0-d scalars.  A round's other requests
go, kind by kind, to one call of the kind's ``evaluate`` (as
`principal.Curvature`).
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .calculus import FiberMap
from .errors import InstabilityError, StiffnessError, UsageError
from .groups import _HALF, AlgebraElement, GroupDescriptor, GroupElement, _frobenius

__all__ = ["TransportResult", "integrate_stack", "integrate_on_group", "integrate_linear",
           "Transport", "transport", "planned", "together"]

_BLOWUP_FACTOR = 1e6
_MIN_RELATIVE_STEP = 1e-13
_TWELVE = np.array(12.0)  # a 0-d ufunc operand, as `groups._HALF`


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
    uv = np.matvec(ad, v)
    return v - _HALF * uv + np.matvec(ad, uv) / _TWELVE


def _finite(fibers, where, k, frac):
    """``fibers`` once every row is finite (a finite sum clears them all), else an
    InstabilityError naming the rows of the first leg that holds one, as
    ``where`` places them: a NaN passes no residual test, and the right-hand
    side must not see one."""
    if math.isfinite(np.add.reduce(fibers, axis=None)) or np.isfinite(fibers).all():
        return fibers
    bad = ~np.isfinite(fibers).all(axis=(-2, -1))
    bad, t = where(bad, bad, k, frac)
    raise InstabilityError(f"integration produced non-finite fibers in rows "
                           f"{np.flatnonzero(bad).tolist()} at t={t:.4f}")


def _where(legs, cut, hs, rank, values, bad, k, frac):
    """(values, t): the entries of ``values`` on the first leg with a ``bad``
    row, in that leg's own row order, and the leg's time t0 + k h + frac h at
    step k, the float a run of that leg alone reports.  ``values`` and ``bad``
    run over the live rows (the first legs'), row j being leg-major rank[j];
    leg i holds the leg-major rows cut[i]:cut[i + 1]."""
    i = np.searchsorted(cut, rank[bad].min(), "right") - 1
    return values[np.argsort(rank)][cut[i]:cut[i + 1]], legs[i].t0 + k * hs[i] + frac * hs[i]


def _steps(interval, step):
    """(t0, t1, N) for N equal steps of at most ``step``."""
    t0, t1 = float(interval[0]), float(interval[1])
    if not t1 > t0:
        raise UsageError("integration interval must satisfy t0 < t1")
    span = t1 - t0
    if not step >= _MIN_RELATIVE_STEP * span:  # a NaN step fails it too
        raise StiffnessError(f"step {step} underflows for interval of length {span}")
    return t0, t1, max(1, int(np.ceil(span / step)))


def _stage_times(t0, t1, n_steps):
    """The 2N+1 stage times t0 + k h (entry 2k) and t0 + k h + h/2 (entry
    2k + 1), each the float a step-by-step loop computes, and h."""
    h = (t1 - t0) / n_steps
    times = np.empty(2 * n_steps + 1)
    times[0] = t0
    times[2::2] = t0 + np.arange(1, n_steps + 1) * h
    times[1::2] = t0 + np.arange(n_steps) * h + 0.5 * h
    return times, h


# One (interval, step) group of a loop: its ``parts``, one (builder, rows,
# kinds) each, those on one builder adjacent, whose base schedule at stage
# times ``times`` is ``builder(*(kind(times) for kind in kinds))``; its N
# steps on [t0, t1].  Its stack rows are those of its parts.
_Leg = namedtuple("_Leg", "parts t0 t1 steps")
# A part of a loop: its leg, its first leg-major row, its rows, its kinds.
_Part = namedtuple("_Part", "leg lo rows kinds")


def _joined(parts, cut):
    """One fiber map, or one schedule, of several: part i acts on the rows
    cut[i]:cut[i + 1] of a stack (entry j of the joined schedule joins the
    parts' entries j).  A lone part is itself."""
    if len(parts) == 1:
        return parts[0]

    def stacked(fibers, *maps):
        return np.concatenate([f(fibers[lo:hi]) for f, lo, hi in zip(maps, cut, cut[1:])])

    return FiberMap(stacked, *parts)


def _points(parts, times, lo, hi):
    """The points at which a builder is asked for the rows of its ``parts``,
    each at the stage times lo:hi of its own leg: a lone part's own, else the
    (T, rows, n) blocks of each kind of point joined along the rows."""
    got = [[kind(times[p.leg][lo:hi]) for kind in p.kinds] for p in parts]
    if len(got) == 1:
        return got[0]
    return [np.concatenate([np.broadcast_to(v.reshape(len(v), -1, v.shape[-1]),
                                            (len(v), p.rows, v.shape[-1]))
                            for v, p in zip(kind, parts)], axis=1) for kind in zip(*got)]


def _scalars(hs):
    """(0.5 h, h, h / 6) of the live rows, row j stepping with hs[j]: 0-d
    arrays when one h serves all, else columns holding each row's own;
    (0.5 * h) k is 0.5 * h * k and k + k is 2.0 k, bit for bit."""
    if (hs == hs[0]).all():
        return np.array(0.5 * hs[0]), np.array(hs[0]), np.array(hs[0] / 6.0)
    hs = hs[:, None]
    return 0.5 * hs, hs, hs / 6.0


# a diverging run overflows on its way to the non-finite fibers `_finite` reports
@np.errstate(over="ignore", invalid="ignore")
def _run(desc, g, legs):
    """The endpoints of one RKMK4 loop over the (B, m, m) stack ``g``, whose
    rows are those of ``legs`` in order, most steps first; each leg steps
    with its own h and stage times.  The stack is gathered once into
    builder-major order, ``rank`` holding each live row's leg-major row.  The
    loop runs in epochs that end where a leg ends; an epoch asks each builder
    once, and at its end the legs that end there leave in one take."""
    times, hs = zip(*(_stage_times(leg.t0, leg.t1, leg.steps) for leg in legs))
    lo, blocks, bounds = 0, {}, [0]
    for i, leg in enumerate(legs):
        for builder, rows, kinds in leg.parts:
            blocks.setdefault(builder, []).append(_Part(i, lo, rows, kinds))
            lo += rows
        bounds.append(lo)  # leg i holds the leg-major rows bounds[i]:bounds[i + 1]
    rank = np.concatenate([np.arange(p.lo, p.lo + p.rows) for b in blocks.values() for p in b])
    out, g = np.empty_like(g), g[rank]
    exp = desc.exp_hook or desc.exp_coords
    limit = np.array(_BLOWUP_FACTOR * max(desc.membership_tol, 1e-12))
    # on an abelian fiber both brackets vanish and the correction returns v
    dexpinv = (lambda desc, u, v: v) if desc.abelian else _dexpinv
    retract = desc.retract_measured
    start = 0
    for stop in sorted({leg.steps for leg in legs}):
        cut = np.cumsum([0] + [sum(p.rows for p in block) for block in blocks.values()]).tolist()
        schedule = _joined([builder(*_points(block, times, 2 * start, 2 * stop + 1))
                            for builder, block in blocks.items()], cut)
        half, whole, sixth = _scalars(np.repeat(hs, np.diff(bounds))[rank])
        where = functools.partial(_where, legs, bounds, hs, rank)
        f_start = schedule[0]
        for k in range(start, stop):
            # the stage-4 map is the next step's stage-1 map
            f_mid, f_end = schedule[2 * (k - start) + 1], schedule[2 * (k - start) + 2]
            k1 = f_start(g)
            u2 = half * k1
            k2 = dexpinv(desc, u2, f_mid(_finite(exp(u2) @ g, where, k, 0.5)))
            u3 = half * k2
            k3 = dexpinv(desc, u3, f_mid(_finite(exp(u3) @ g, where, k, 0.5)))
            u4 = whole * k3
            k4 = dexpinv(desc, u4, f_end(_finite(exp(u4) @ g, where, k, 1.0)))
            omega = sixth * (k1 + (k2 + k2) + (k3 + k3) + k4)
            g, res = retract(_finite(exp(omega) @ g, where, k, 1.0))
            if np.count_nonzero(res > limit):
                res, t = where(res, res > limit, k, 1.0)
                raise InstabilityError(f"membership residual blew up to {np.max(res):.3e} in "
                                       f"row {int(np.argmax(res))} at t={t:.4f}")
            f_start = f_end
        # the legs that end here, the last live ones, leave; their ends go back
        keep = rank < bounds[sum(leg.steps > stop for leg in legs)]
        out[rank[~keep]] = g[~keep]
        g, rank = g[keep], rank[keep]
        blocks = {builder: kept for builder, block in blocks.items()
                  if (kept := [p for p in block if legs[p.leg].steps > stop])}
        start = stop
    return out


def integrate_stack(field: Callable[[np.ndarray], Sequence[Callable]], descriptor: GroupDescriptor,
                    g0, interval, step=1e-2, with_error_estimate=False):
    """Solve g' = v_t(g) g for each row of a (B, m, m) stack of fibers.

    ``field(times)`` is called once per run, with the 1-D array of all 2N+1
    stage times (the step-halving rerun asks for its own 4N+1), and returns
    the base schedule: entry j maps a stack of fiber matrices to their
    right-trivialized velocities at stage time j, (B, m, m) -> (B, dim).
    Initial fibers off the group raise the `DescriptorError` of a checked
    `GroupElement`, naming the rows.  Returns one TransportResult: the
    endpoints retracted onto the group, with each row's step-halving error
    estimate (Frobenius distance to the half-step solution) when requested.
    A single (m, m) matrix runs as a stack of one row, which the field's maps
    see as (1, m, m), and comes back as one matrix with one float each.
    """
    t0, t1, n = _steps(interval, step)
    g0 = np.asarray(g0, dtype=float)
    m = descriptor.matrix_dim
    if g0.ndim not in (2, 3) or g0.shape[-2:] != (m, m):
        raise UsageError(f"fibers have shape {g0.shape}, expected (B, {m}, {m}) or ({m}, {m})")
    # the one membership check: every later fiber is exp of a finite velocity
    # times a member, retracted at each step, so its log needs no check
    GroupElement(g0, descriptor)
    stack = g0.reshape(-1, m, m)  # a lone matrix runs as one row
    parts = [(field, len(stack), (lambda times: times,))]  # a field asked by its stage times

    def run(steps):
        return _run(descriptor, stack, [_Leg(parts, t0, t1, steps)]).reshape(g0.shape)

    end = run(n)
    fine = run(2 * n) if with_error_estimate else None
    return TransportResult(
        element=GroupElement(end, descriptor, check=False),
        error_estimate=None if fine is None else _frobenius(end - fine),
        steps=n,
        membership_residual=descriptor.membership_residual(end),
    )


def integrate_on_group(rhs: Callable[[float, GroupElement], AlgebraElement], g0: GroupElement,
                       interval, step=1e-2, with_error_estimate=True) -> TransportResult:
    """Solve g' = rhs(t, g) g (right-trivialized velocity in the algebra) for
    one element by `integrate_stack`."""
    desc = g0.descriptor

    def velocity(t, g):  # rhs sees the one element, not its one-row stack
        val = rhs(t, GroupElement(g.reshape(g0.matrix.shape), desc, check=False))
        return val.coords if isinstance(val, AlgebraElement) else np.asarray(val, float)

    # rhs is a function of (t, g), so its schedule is one rhs per stage time
    return integrate_stack(lambda times: [functools.partial(velocity, t) for t in times.tolist()],
                           desc, g0.matrix, interval, step, with_error_estimate)


Transport = namedtuple("Transport", "builder curve fibers step")


def transport(requests):
    """The endpoints of each request: one matrix per fiber, shaped like it.
    The requests on one fiber descriptor make one loop of `_run`, with one leg
    per interval and step; a leg's rows are its requests', builder by builder."""
    loops, ends = {}, [None] * len(requests)
    for i, req in enumerate(requests):
        legs = loops.setdefault(req.fibers[0].descriptor, {})
        legs.setdefault((req.curve.a, req.curve.b, req.step), {}).setdefault(
            req.builder, []).append(i)
    # fiber j on curve c is row j C + c, as curve.repeat(k) lays them out
    stacks = [np.concatenate([np.reshape(f.matrix, (-1,) + f.matrix.shape[-2:]) for f in r.fibers])
              for r in requests]
    curves = [r.curve.repeat(len(r.fibers)) for r in requests]
    parts = [(r.builder, len(stack), (c.position, c.velocity))
             for r, stack, c in zip(requests, stacks, curves)]
    for desc, legs in loops.items():
        # most steps first, ties in request order
        legs = sorted(((_steps((a, b), step), [i for idx in groups.values() for i in idx])
                       for (a, b, step), groups in legs.items()), key=lambda leg: -leg[0][2])
        order = [i for _, idx in legs for i in idx]
        g0 = np.concatenate([stacks[i] for i in order])
        GroupElement(g0, desc)  # the one membership check, as in `integrate_stack`
        end = _run(desc, g0, [_Leg([parts[i] for i in idx], *span) for span, idx in legs])
        for i, part in zip(order, np.split(end, np.cumsum([len(stacks[i]) for i in order])[:-1])):
            fibers = requests[i].fibers
            ends[i] = list(part.reshape((len(fibers),) + fibers[0].matrix.shape))
    return ends


def _grouped(requests, key, answer):
    """The answers to ``requests`` in their order, ``answer(k, group)`` giving
    those of each group of requests with one ``key(request)`` k."""
    groups, answers = {}, [None] * len(requests)
    for i, req in enumerate(requests):
        groups.setdefault(key(req), []).append(i)
    for k, idx in groups.items():
        for i, got in zip(idx, answer(k, [requests[i] for i in idx])):
            answers[i] = got
    return answers


def _start(plan):
    """The request list that ``plan`` yields first."""
    try:
        return next(plan)
    except StopIteration:
        raise UsageError("a plan yields its requests once") from None


def _finish(plan, answers):
    """The value of ``plan`` once sent the answers to its one round of requests."""
    try:
        plan.send(answers)
    except StopIteration as stop:
        return stop.value
    raise UsageError("a plan yields its requests once")


def planned(plan):
    """The generator function ``plan`` as the function that drives its plan,
    its one round answered by request kind; ``.plan`` keeps the generator
    function."""

    @functools.wraps(plan)
    def run(*args, **kwargs):
        gen = plan(*args, **kwargs)
        return _finish(gen, _grouped(_start(gen), type, lambda kind, requests: (
            transport if kind is Transport else kind.evaluate)(requests)))

    run.plan = plan
    return run


@planned
def together(plans):
    """Runs a list of plans as one round and returns the list of their values:
    every plan's requests are yielded at once."""
    asked = [_start(plan) for plan in plans]
    got = iter((yield [r for reqs in asked for r in reqs]))
    return [_finish(plan, [next(got) for _ in reqs]) for plan, reqs in zip(plans, asked)]


# a diverging run overflows on its way to the non-finite values it reports
@np.errstate(over="ignore", invalid="ignore")
def integrate_linear(matrix_fn, v0, interval, step=1e-2):
    """Classical RK4 for linear systems v' = K(t) v on coordinate vectors.

    ``v0`` may be a (d, B) array: K @ V acts column by column, so B columns
    share each K; a (C, d, B) family gives curve c its own K.  Like the field
    of `integrate_stack`, ``matrix_fn`` is called once, with all 2N+1 stage
    times; entry j of its result is K there.  On a linear system a step is
    v + h/6 M v with M = K1 + 2 K2 + 2 K3 + K4, K2 = Km (I + h/2 K1),
    K3 = Km (I + h/2 K2), K4 = Ke (I + h K3): every step's M is built in one
    batched pass, and the loop does one product per step.  It adds the
    increment, not (I + h/6 M) v, so a blow-up overflows at the step the
    vector form does.  A blow-up names its columns, or on a family its
    (curve, column) pairs, and t.
    """
    t0, t1, n = _steps(interval, step)
    times, h = _stage_times(t0, t1, n)
    schedule = np.asarray(matrix_fn(times), dtype=float)
    k_start, k_mid, k_end = schedule[:-1:2], schedule[1::2], schedule[2::2]
    eye = np.eye(schedule.shape[-1])
    k2 = k_mid @ (eye + 0.5 * h * k_start)
    k3 = k_mid @ (eye + 0.5 * h * k2)
    k4 = k_end @ (eye + h * k3)
    sixth = np.array(h / 6.0)  # a 0-d ufunc operand, as `_TWELVE`
    v = np.asarray(v0, dtype=float)
    for k, increment in enumerate(k_start + 2 * k2 + 2 * k3 + k4):
        v = v + sixth * (increment @ v)
        if math.isfinite(np.add.reduce(v, axis=None)) or np.isfinite(v).all():  # as `_finite`
            continue
        if v.ndim > 2:  # a family: name each curve's columns, not the pooled ones
            pairs = np.argwhere(~np.isfinite(v).all(axis=-2)).tolist()
            where = f"(curve, column) pairs {[tuple(p) for p in pairs]}"
        else:
            finite = np.isfinite(v).reshape(-1, v.shape[-1] if v.ndim > 1 else 1).all(axis=0)
            where = f"columns {np.flatnonzero(~finite).tolist()}"
        raise InstabilityError(f"linear integration produced non-finite values in {where} "
                               f"at t={t0 + k * h + h:.4f}")
    return v
