"""Machine-speed correction for timings taken on a shared machine.

On the machine this benchmark was built on, the speed of pure-Python code
swings by up to 1.8x within tenths of a second (other tenants share the
cores), so one fixed Hausdorff call took 50 to 88 ms as a 10-second median
and far more than that apart from run to run.  Its ratio to a small fixed
reference kernel, timed at the same moments, stayed within a few percent.

So every time the benchmark reports is measured together with samples of
that kernel: a few right before and after the measured call, and one every
INTERVAL_S during it, taken from a SIGALRM handler on the same thread (no
thread or process is started).  The handler's own time is subtracted from
the call.  The reported time is the time on a machine where the kernel
takes REFERENCE_S:

    reported = measured * REFERENCE_S / (mean kernel time over the call)

The kernel is exact rational arithmetic that does not touch netline, so no
change to the program can move it.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.0001
INTERVAL_S = 0.005
EDGE_SAMPLES = 3


def kernel() -> float:
    """Seconds one run of the reference kernel takes right now."""
    t0 = perf_counter()
    s = Fraction(0)
    for i in range(1, 40):
        s += Fraction(i % 97, 64 + i % 7)
    return perf_counter() - t0


class SpeedProbe:
    """Kernel samples around and, while entered, during measured calls."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.paused = 0.0
        self._old_handler = None
        self._edge()

    def _sample(self, *_signal_args) -> None:
        t0 = perf_counter()
        self.samples.append(kernel())
        self.paused += perf_counter() - t0

    def _edge(self) -> None:
        # held alarms wait, so no sample runs inside another one
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            for _ in range(EDGE_SAMPLES):
                self._sample()
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def __enter__(self) -> "SpeedProbe":
        self._old_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def measure(self, fn):
        """(fn(), seconds measured, seconds at reference speed).

        Measured seconds exclude the kernel samples taken during the call;
        the scale comes from the samples just before, during and just
        after it."""
        first = len(self.samples) - EDGE_SAMPLES
        paused = self.paused
        t0 = perf_counter()
        result = fn()
        elapsed = perf_counter() - t0 - (self.paused - paused)
        self._edge()
        near = self.samples[first:]
        return result, elapsed, elapsed * REFERENCE_S * len(near) / sum(near)
