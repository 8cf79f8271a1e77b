"""Wall time scaled to a nominal speed of the core it ran on.

On a shared host the speed of one core changes by up to 1.7x within
seconds (other tenants on the same physical core), and it changes on each
core independently, so neither a longer run nor a probe on another core
removes it.  `SpeedClock` interleaves a fixed pure-Python kernel with the
timed code: a SIGALRM timer interrupts the code every `interval` seconds,
the handler times one kernel run, and each slice of wall time between two
kernel runs is divided by the mean kernel time at its two ends.  The sum is
the time the code would have taken on a core that runs the kernel in
`NOMINAL_KERNEL_S`.  Kernel time itself is excluded.

The kernel is pure Python (calls, attribute and item access, float
arithmetic) because liebundles' cost is interpreter overhead, and because
the handler may run while a module is half imported, so it must import
nothing.
"""

from __future__ import annotations

import signal
import time

# Median kernel time on a core of the reference machine (a 2-core Intel Xeon
# virtual machine).  It only sets the scale of the reported seconds.
NOMINAL_KERNEL_S = 5.0e-5
INTERVAL_S = 0.05


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y


def _step(p, q):
    return _Point(p.x * 0.5 + q.y, p.y - q.x * 0.25)


def kernel():
    """A fixed amount of interpreter work (about 50 us on the reference core)."""
    points = [_Point(float(i), float(-i)) for i in range(16)]
    acc = points[0]
    for _ in range(4):
        for q in points:
            acc = _step(acc, q)
    return acc.x + acc.y


def _time_kernel():
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class SpeedClock:
    """Context manager: `.wall` is raw wall seconds, `.seconds` the scaled time.

    Only one SpeedClock may run at a time, in the main thread.
    """

    def __init__(self):
        self.wall = self.seconds = 0.0

    def _close_slice(self, now):
        k = _time_kernel()
        self.seconds += (now - self._last) * NOMINAL_KERNEL_S / (0.5 * (k + self._k_prev))
        self._k_prev = k
        self._last = time.perf_counter()
        self._kernel_s += self._last - now

    def _tick(self, signum, frame):
        self._close_slice(time.perf_counter())

    def __enter__(self):
        self.wall = self.seconds = self._kernel_s = 0.0
        self._k_prev = _time_kernel()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._start = self._last = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        now = time.perf_counter()
        self.wall = now - self._start - self._kernel_s
        self._close_slice(now)
        signal.signal(signal.SIGALRM, self._previous)
        return False
