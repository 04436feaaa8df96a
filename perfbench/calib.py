"""Host-speed sampling: scales wall times to a nominal core speed.

On a shared host the speed of a core swings by up to about two times,
from one state to the other within a second and for stretches of tens
of seconds, and process CPU time swings with it. So the process that
does the timed work also samples its core's speed: every ``PERIOD_S`` of
its CPU time a ``SIGPROF`` handler times a fixed small computation that
runs no expvar code. A timed interval's wall time, less the time the
handler took in it, is scaled by the mean of ``NOMINAL_S / sample`` over
the samples taken in it: the result reads as seconds on this host at the
speed ``NOMINAL_S`` was measured at, and a change to expvar cannot move
the scale. The kernel needs only NumPy, which ``import expvar`` loads.
"""

from __future__ import annotations

import gc
import math
import signal
import time

import numpy as np

#: Seconds of one ``kernel()`` on a 2-vCPU KVM guest (Python 3.11,
#: NumPy 2.4, OpenBLAS pinned to one thread), about the mean sample there
#: at typical load, so scaled times read close to wall times.
NOMINAL_S = 0.0008
#: Process CPU seconds between two samples (about 2% overhead).
PERIOD_S = 0.025

_N = 24
_RNG = np.random.default_rng(20190920)
_G = _RNG.standard_normal((_N, _N))
_A = _G @ _G.T + _N * np.eye(_N)
_B = _RNG.standard_normal((_N, 6))
_EYE = np.eye(_N)


def kernel(reps: int = 8) -> float:
    """Small dense factorizations and solves plus interpreter-level loops,
    the mix a battery spends its time on."""
    acc = 0.0
    for k in range(reps):
        L = np.linalg.cholesky(_A + k * _EYE)
        x = np.linalg.solve(L, _B)
        acc += float(np.log(np.diag(L)).sum()) + float(np.sum(x * x))
        counts: dict[int, float] = {}
        for j in range(100):
            counts[j % 13] = counts.get(j % 13, 0.0) + j * 0.5
        acc += sum(counts.values()) * 1e-9
    return acc


class Sampler:
    """Times ``kernel()`` from a SIGPROF handler every PERIOD_S of CPU time."""

    def __init__(self):
        #: (perf_counter at the start, seconds) of each sample
        self.samples: list[tuple[float, float]] = []

    def _tick(self, signum, frame) -> None:
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        kernel()
        self.samples.append((t0, time.perf_counter() - t0))
        if enabled:
            gc.enable()

    def start(self) -> "Sampler":
        kernel()  # first-call costs
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def _within(self, t0: float, t1: float) -> list[tuple[float, float]]:
        return [s for s in self.samples if t0 <= s[0] and s[0] + s[1] <= t1]

    def spent(self, t0: float = -math.inf, t1: float = math.inf) -> float:
        """Seconds the handler took inside [t0, t1]."""
        return sum(d for _, d in self._within(t0, t1))

    def scale(self, t0: float = -math.inf, t1: float = math.inf) -> float:
        """Mean speed relative to nominal over the samples in [t0, t1];
        with none there, over the nearest sample on each side."""
        inside = self._within(t0, t1)
        if not inside:
            before = [s for s in self.samples if s[0] < t0][-1:]
            after = [s for s in self.samples if s[0] >= t0][:1]
            inside = before + after
        if not inside:
            raise RuntimeError("no speed samples taken")
        return sum(NOMINAL_S / d for _, d in inside) / len(inside)
