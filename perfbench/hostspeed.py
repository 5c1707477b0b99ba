"""Host-speed reference for the benchmark's timings.

The benchmark runs on shared hosts whose speed wanders: the same horizon
solve took 50 to 85 ms per iteration in runs a few minutes apart, far more
than it varied within one run. A fixed reference kernel that shares no code
with ipal is timed between operations, outside the timed region, and each
time of a solve, a differentiate or a set-up is reported both raw and scaled
by ``REF_KERNEL_MS / mean kernel time``: milliseconds on a host where the
kernel takes ``REF_KERNEL_MS``. A change to ipal cannot alter the kernel, so the
scaling removes the host's drift and keeps every change of the program's own
speed. The mean, not the median: the kernel's time jumps between a fast and
a slow level from one timing to the next, and an operation's time, like the
mean, averages over those levels.

The kernel mixes the two kinds of work a solve does: dense Bunch-Kaufman
LDL factorizations (LAPACK ``dsytrf``, which ``scipy.linalg.ldl`` in
``ipal.linsolve`` calls) and a loop of small numpy calls that is bound by
interpreter overhead. It factorizes in place in buffers allocated once, so
it adds a constant to the peak memory and no transient.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import List

import numpy as np
from scipy.linalg import lapack

# nominal kernel time that scaled times refer to; a unit, not a measurement
REF_KERNEL_MS = 8.0
# seconds between kernel timings during a timed loop (about 3 % of the run)
EVERY_S = 0.25
LDL_ORDER = 400
LDL_REPS = 3
SMALL_CALLS = 2000


class Kernel:
    """The reference kernel, with its buffers allocated once."""

    def __init__(self):
        a = np.random.default_rng(0).standard_normal((LDL_ORDER, LDL_ORDER))
        a += a.T
        self._matrix = a.T  # symmetric, so its Fortran-ordered view is itself
        self._work = np.empty_like(self._matrix, order="F")
        self._vector = np.ones(3)

    def time(self) -> float:
        """Seconds one run of the kernel takes."""
        t0 = perf_counter()
        for _ in range(LDL_REPS):
            self._work[...] = self._matrix
            lapack.dsytrf(self._work, lower=1, lwork=64 * LDL_ORDER, overwrite_a=1)
        acc = 0.0
        for _ in range(SMALL_CALLS):
            acc += float(self._vector @ self._vector)
        return perf_counter() - t0


class HostSpeed:
    """Timings of the kernel over one stretch of the run: taken when forced
    and at most every EVERY_S."""

    def __init__(self, kernel: Kernel):
        self._kernel = kernel
        self.kernel_s: List[float] = []
        self._next = 0.0

    def sample(self, force: bool = False) -> None:
        if force or perf_counter() >= self._next:
            self.kernel_s.append(self._kernel.time())
            self._next = perf_counter() + EVERY_S

    def scale(self) -> float:
        """Factor from this host's time to time at the reference speed."""
        return REF_KERNEL_MS / (1e3 * statistics.fmean(self.kernel_s))
