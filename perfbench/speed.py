"""Machine-speed probe.

On shared virtual machines the same computation, repeated in one process,
can take up to twice as long for minutes at a time.  The whole CPU is
slower, so CPU time moves with wall time and no single run can be trusted
on its own.  The probe measures that drift while the benchmark runs.  A
timer signal every PERIOD seconds runs a fixed reference kernel and records
how long it took.  The kernel does small-matrix numpy arithmetic, Fraction
arithmetic and Python-level loop overhead, which is the mix morita_lab
spends its time on.  It touches nothing of morita_lab, so a change to the
program does not change it.

A timed interval is reported net of the probe's own ticks and rescaled to
the reference speed:

    scaled = (duration - probe time inside) * REFERENCE_KERNEL_S / median

where the median is taken over the kernel times of the ticks within WINDOW
seconds of the interval.  On one 2-core VM this cut the quartile spread of
a repeated 2.5 s body from 0.19 to 0.05.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

import numpy as np

PERIOD = 0.25
WINDOW = 2.0
# median kernel time on the 2-core Xeon VM the benchmark was tuned on
REFERENCE_KERNEL_S = 0.003

_B = (np.arange(9, dtype=np.int64).reshape(3, 3) * 7) % 3


def kernel():
    """The fixed reference computation; returns its duration in seconds."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(120):
        b = np.kron(_B, _B) % 3
        nz = np.nonzero(b[:, i % 9])[0]
        acc += Fraction(int(b[i % 9, 2]) + len(nz), 1 + i % 4)
    return time.perf_counter() - t0


class SpeedProbe:
    """Context manager that samples the kernel on a timer signal.  Ticks
    accumulate across uses of one probe."""

    def __init__(self):
        self.starts = []
        self.durations = []

    def _tick(self, signum, frame):
        start = time.perf_counter()
        duration = kernel()
        self.starts.append(start)
        self.durations.append(duration)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def _range(self, a, b):
        return bisect.bisect_left(self.starts, a), bisect.bisect_left(self.starts, b)

    def scaled(self, a, b):
        """The interval [a, b] of perf_counter time, net of probe ticks and
        rescaled to the reference speed.  Unscaled when no tick is near."""
        lo, hi = self._range(a, b)
        net = (b - a) - sum(self.durations[lo:hi])
        lo, hi = self._range(a - WINDOW, b + WINDOW)
        if lo == hi:
            return net
        return net * REFERENCE_KERNEL_S / statistics.median(self.durations[lo:hi])
