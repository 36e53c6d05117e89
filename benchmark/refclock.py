"""Operation times in units of a reference loop run beside them.

On a shared machine the speed of one core drifts by more than half between
stretches of tens of seconds, for reasons outside the process (measured:
the same 0.8 s NMF run took 0.59-1.22 s over four minutes, in stretches of
20-60 s). A time divided by the time of a fixed reference loop taken at the
same moments keeps the program's cost and drops most of that drift.

:meth:`RefClock.measure` runs the reference loop once before an operation,
every ``INTERVAL`` seconds while it runs (from a SIGALRM handler, between
bytecodes of the main thread) and once after it. It reports the operation's
net seconds (wall time minus the reference loops run inside it) and those
seconds divided by the mean reference-loop time, in ``ref`` units.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

INTERVAL = 0.25  # seconds between reference samples inside an operation
_LOOPS = 160
# The reference loop's time on the 2-core x86_64 machine the bounds were set
# on (median 4.7-4.8 ms inside runs). A time in ref units times this reads as
# seconds at that machine's usual speed.
NOMINAL_REF_S = 0.005


class RefClock:
    """Measures operations in seconds and in reference-loop units."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        rng = np.random.default_rng(0)
        self._x = rng.normal(size=(32, 16))
        self._w1 = rng.normal(size=(16, 16))
        self._w2 = rng.normal(size=(8, 16))
        self._samples: list[float] = []
        self.history: list[float] = []  # every sample taken, for the run record

    def reference(self) -> float:
        """One reference loop; returns its duration in seconds.

        Each pass is a small dense forward and backward pass in numpy with
        some Python bookkeeping, the kind of work the program's inner loops
        do. Its arrays (a few KB) stay in the core's caches, so the loop's
        time does not depend on what the program left there.
        """
        x, w1, w2 = self._x, self._w1, self._w2
        t0 = perf_counter()
        rows = []
        for i in range(_LOOPS):
            z1 = x @ w1.T
            h = np.maximum(z1, 0.0)
            y = 1.0 / (1.0 + np.exp(-(h @ w2.T)))
            d = y * (1.0 - y)
            grad = d.T @ h
            dh = (d @ w2) * (z1 > 0)
            rows.append((float(grad[i % 8, i % 16]), bool(np.all(np.isfinite(dh)))))
        took = perf_counter() - t0
        self.history.append(took)
        return took

    def _tick(self, signum, frame) -> None:
        self._samples.append(self.reference())

    def measure(self, fn):
        """Run ``fn()``; return (its result, net seconds, net seconds in ref units).

        With the clock disabled, no reference loop runs and the ref value is nan.
        """
        if not self.enabled:
            t0 = perf_counter()
            result = fn()
            return result, perf_counter() - t0, float("nan")
        before = self.reference()
        self._samples = []
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        t0 = perf_counter()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            wall = perf_counter() - t0
            signal.signal(signal.SIGALRM, previous)
        inside = self._samples
        after = self.reference()
        net = wall - sum(inside)
        return result, net, net / statistics.fmean([before, *inside, after])
