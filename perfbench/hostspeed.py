"""Host-speed calibration for the timed loop.

On a shared host the speed of one core can drift by 30-50% over seconds to
minutes, with CPU time moving together with wall time, so whole runs of
the same code disagree by that much however long they are. The timed loop
therefore runs a short fixed calibration task every PERIOD_S seconds, from
a SIGALRM handler, so that samples land inside long requests too.

A request's wall time, less the time the samples inside it took, is
rescaled to a reference host: one on which the task takes REF_TASK_S. The
scale is REF_TASK_S over the mean task time of the samples taken during
the request and of the last one before and the first one after it. The
reported times are therefore seconds (or ms) at reference speed, and a
change of host speed cancels out of them while a change to qshoot does
not.

The task is a scipy `solve_ivp` (RK45) march of a damped oscillator with a
Python right-hand side: the same mix of interpreter work and small numpy
arrays that dominates qshoot's own integrations, so host contention slows
both alike. It depends on nothing in qshoot.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np
from scipy.integrate import solve_ivp

PERIOD_S = 0.1        # wall time between samples
REF_TASK_S = 0.003    # the task's wall time on the reference host
EXPECTED_NFEV = 242   # the task's right-hand-side evaluations, fixed


def _rhs(t, y):
    return np.array([y[1], -y[0] - 0.1 * y[1] * abs(y[1])])


def _task() -> int:
    sol = solve_ivp(_rhs, (0.0, 3.0), np.array([1.0, 0.0]), rtol=1e-8,
                    atol=1e-11)
    return sol.nfev


def check_task() -> int:
    """The task's evaluation count; it must not change between runs, or
    the unit it defines has changed."""
    nfev = _task()
    if nfev != EXPECTED_NFEV:
        raise RuntimeError(f"calibration task made {nfev} evaluations, "
                           f"expected {EXPECTED_NFEV}")
    return nfev


class Sampler:
    """Runs the task every PERIOD_S seconds while installed. `samples`
    holds the task's seconds in order; `spent` is the wall time the
    samples took, to be taken out of the requests they interrupted."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._previous = None
        self._busy = False

    def sample(self, *_) -> None:
        if self._busy:        # a signal that arrived during a sample
            return
        self._busy = True
        t0 = perf_counter()
        _task()
        t1 = perf_counter()
        self.samples.append(t1 - t0)
        self.spent += perf_counter() - t0
        self._busy = False

    def install(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def uninstall(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, first: int, end: int) -> float:
        """Factor from wall time to reference-host time for a request
        that saw samples[first:end]: REF_TASK_S over the mean of
        samples[first - 1 : end + 1]."""
        window = self.samples[max(first - 1, 0):end + 1]
        return REF_TASK_S * len(window) / sum(window)
