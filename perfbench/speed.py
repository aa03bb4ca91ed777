"""Machine-speed calibration.

On a shared virtual machine, other tenants' load changes the speed of the
same code by up to half within minutes.  A fixed calibration kernel, run
from a timer interleaved with the measured work, measures the speed the
machine had at those moments; times are then rescaled to the speed at
which one kernel run takes REF_UNIT_S.  The kernel is benchmark code and
never calls pdmosc, so a change to the package cannot move it.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

#: seconds one kernel run took on an uncontended 2.1 GHz Xeon vCPU
REF_UNIT_S = 1.0e-3
#: the kernel runs for SLICE_S out of every PERIOD_S of wall time
PERIOD_S = 0.04
SLICE_S = 0.01

_X = np.linspace(0.0, 1.0, 15)


def _kernel() -> float:
    """Small numpy array operations and scalar float arithmetic: the mix of
    a Gauss-Kronrod panel and a series term loop."""
    s = 0.0
    for i in range(260):
        y = np.exp(-_X * (1.0 + i * 1e-3))
        s += float(y @ _X) + math.exp(-i * 1e-3)
        for k in range(20):
            s += k * 0.5
    return s


def sample(min_seconds: float) -> tuple[float, int]:
    """Run the kernel at least once and for at least min_seconds;
    (seconds spent, kernel runs)."""
    t0 = time.perf_counter()
    runs = 0
    while True:
        _kernel()
        runs += 1
        spent = time.perf_counter() - t0
        if spent >= min_seconds:
            return spent, runs


def rescale(seconds: float, cal_seconds: float, cal_runs: int) -> float:
    """seconds measured while one kernel run took cal_seconds/cal_runs,
    expressed at the reference speed."""
    return seconds * REF_UNIT_S * cal_runs / cal_seconds


class Interleaved:
    """While active, a SIGALRM handler interrupts the main thread every
    PERIOD_S and runs the kernel for SLICE_S, so the calibration samples the
    same moments as the work it brackets.  ``spent`` is the time the
    handler took, to subtract from the bracketed wall time."""

    def __enter__(self) -> "Interleaved":
        self.spent = 0.0
        self.runs = 0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def _tick(self, signum, frame):
        spent, runs = sample(SLICE_S)
        self.spent += spent
        self.runs += runs

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def rescale(self, seconds: float) -> float:
        """seconds of bracketed work at the reference speed; work shorter
        than one period is rescaled by a sample taken now."""
        spent, runs = (self.spent, self.runs) if self.runs else sample(SLICE_S)
        return rescale(seconds, spent, runs)
