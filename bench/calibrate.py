"""A fixed reference kernel that tracks how fast this machine runs right now.

On a shared host the same code runs up to nearly 2x slower for seconds to
minutes at a time, which would swamp any change worth measuring.  While a
workload runs, a wall-clock timer interrupts it every EVERY_S seconds to
time a short burst of this kernel in the same process; each operation's
time, with the bursts taken out, is then scaled by REF_MS over the mean
kernel time during that operation.  The kernel never changes with the
program.  It mixes the two kinds of work tabounds does, small numpy matrix
calls and pure-Python float arithmetic with number formatting, so it slows
down with the machine the way the workloads do.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

REF_MS = 1.5        # nominal time of one kernel repetition at reference speed
BURST_REPS = 5      # repetitions per burst; the burst reports their median
EVERY_S = 0.2       # wall-clock seconds between bursts

_M = np.cos(np.arange(64.0)).reshape(8, 8)
_H = _M + _M.T


def kernel() -> float:
    """One repetition of the reference work (2-3 ms here): half small numpy
    calls, half pure-Python float arithmetic and number formatting."""
    acc = 0.0
    for i in range(24):
        a = np.kron(_H[:2, :2], _H[i % 4 : i % 4 + 4, :4])
        acc += float(np.einsum("ijik->jk", a.reshape(2, 4, 2, 4)).trace())
        acc += float(np.linalg.eigvalsh(_H[:4, :4] + i)[0])
    for i in range(1, 400):
        x = i / 401.0
        y = math.log2(x / (1.0 - x)) - (i + 1.0) * math.log2(i + 1.0) + i * math.log2(i)
        acc += float(format(y, ".12g"))
    return acc


class Calibrator:
    """Bursts of the reference kernel: when each ran and how long a repetition took."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.rep_ms: list[float] = []
        self._spent: list[float] = []  # total burst time up to and including each burst

    def burst(self) -> None:
        t0 = perf_counter()
        reps = []
        for _ in range(BURST_REPS):
            r0 = perf_counter()
            kernel()
            reps.append((perf_counter() - r0) * 1e3)
        t1 = perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.rep_ms.append(statistics.median(reps))
        self._spent.append((self._spent[-1] if self._spent else 0.0) + t1 - t0)

    @contextmanager
    def sampling(self):
        """Burst every EVERY_S seconds of wall time, interrupting whatever runs."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.burst())
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def clock(self, t: float) -> float:
        """``t`` less the burst time spent before it: a clock that stops during bursts."""
        k = bisect.bisect_right(self.starts, t) - 1
        if k < 0:
            return t
        if t >= self.ends[k]:
            return t - self._spent[k]
        return self.starts[k] - (self._spent[k - 1] if k else 0.0)

    def scale(self, t0: float, t1: float) -> float:
        """REF_MS over the mean kernel time of the bursts during [t0, t1], or
        of the bursts either side when none ran inside it."""
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_right(self.starts, t1)
        near = self.rep_ms[i:j] or self.rep_ms[max(i - 1, 0) : i + 1]
        return REF_MS / statistics.fmean(near)
