"""SpeedClock leaves no timer or handler behind and excludes its kernel time."""

import signal
import time

from speedclock import SpeedClock


def test_clock_restores_signal_state_and_reports_both_times():
    before = signal.getsignal(signal.SIGALRM)
    t0 = time.perf_counter()
    with SpeedClock() as clock:
        while time.perf_counter() - t0 < 0.3:
            pass
    elapsed = time.perf_counter() - t0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 0.2 < clock.wall < elapsed
    assert clock.seconds > 0.0
