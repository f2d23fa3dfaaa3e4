"""Op timing that corrects for the machine's speed at the time.

Speed drifts by 20% and more within a second on a shared VM.  While a timed
call runs, a SIGALRM timer runs a short fixed probe loop every few
milliseconds, and the probe also runs right before and after the call.  The
call's time, minus the time spent in the probes inside it, is scaled to a
nominal speed at which the probe takes ``PROBE_S``:
``seconds * PROBE_S / mean probe time``.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

PROBE_S = 0.00013  # typical probe time on a 2-core x86 VM
PROBE_ITERATIONS = 600
INTERVAL_S = 0.005


def probe() -> float:
    """Seconds for a fixed loop of tuple, dict and int work, the same kind of
    interpreter work hesskit does."""
    t0 = perf_counter()
    table: dict = {}
    for i in range(PROBE_ITERATIONS):
        key = (i & 255, i % 7)
        table[key] = table.get(key, 0) + i
    return perf_counter() - t0


class Clock:
    """Times one call at a time; after each, ``seconds`` is its wall time
    without the probes and ``probe_s`` the mean probe time around and in it."""

    def __init__(self):
        self._samples: list[float] = []
        self.seconds = 0.0
        self.probe_s = PROBE_S
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        self._samples.append(probe())

    def __call__(self, fn):
        self._samples = [probe()]
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = perf_counter()
        try:
            return fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall = perf_counter() - t0
            self.seconds = wall - sum(self._samples[1:])
            self._samples.append(probe())
            self.probe_s = statistics.fmean(self._samples)

    @property
    def scaled(self) -> float:
        """``seconds`` at the nominal speed."""
        return self.seconds * PROBE_S / self.probe_s
