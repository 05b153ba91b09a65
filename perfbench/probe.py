"""CPU-speed probe: scales measured times to a fixed reference speed.

The benchmark runs on a shared machine whose speed for pure-Python code
swings by up to 40% from one second to the next and drifts over minutes,
as other tenants load the cores.  Every timed pass therefore samples the
speed with a fixed, benchmark-owned kernel (``_kernel``, exact Fraction
arithmetic like the library's hot path) every ``PERIOD_S`` seconds from a
SIGALRM handler.  The pass's speed factor is the mean kernel time over
``REFERENCE_S``; a time divided by it is in reference seconds, i.e. seconds
on a machine where the kernel takes ``REFERENCE_S``.  An item's latency is
divided by the factor of the samples taken while it ran.  The kernel never calls
the library, so a faster library cannot change the factor.

The garbage collector is paused while the kernel runs, so a collection of
the library's objects is never charged to the probe.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.02
# kernel time on an unloaded 2-core Xeon (Python 3.11)
REFERENCE_S = 150e-6


def _kernel() -> Fraction:
    acc = Fraction(0)
    for i in range(1, 40):
        acc += Fraction(i * i + 1, 2 * i + 3)
    return acc


def sample() -> float:
    """Seconds one run of the kernel takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Context manager sampling the speed every PERIOD_S while it is open.

    ``total`` is the time spent inside the probe, for callers that must
    subtract it from an interval measured in the same thread.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.total = 0.0

    def _tick(self, _signum, _frame) -> None:
        start = time.perf_counter()
        self.samples.append(sample())
        self.total += time.perf_counter() - start

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @property
    def factor(self) -> float:
        """Speed factor over everything sampled so far."""
        return self.factor_since(0)

    def factor_since(self, mark: int) -> float:
        """Speed factor over the samples taken since ``len(samples)`` was ``mark``.

        With no sample in that window (an item shorter than PERIOD_S), the
        factor over the whole pass so far stands in.
        """
        window = self.samples[mark:] or self.samples or [sample()]
        return statistics.fmean(window) / REFERENCE_S
