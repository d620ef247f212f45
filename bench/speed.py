"""Machine-speed probe: a fixed kernel, timed between checks.

The benchmark runs on a few cores of a shared host. How fast those cores run
changes with the load from other tenants, at times by a factor of 1.5 or
more, and a fast or slow spell can last minutes, longer than one run.
Process CPU time moves with it, so it does not help. A fixed kernel timed in
the same process, close in time to the work, does: its time tracks the
host's speed.

There is one kernel per kind of work the batteries spend their time on
(``KERNEL_OF``): ``mixed`` is graph search into numpy arrays plus keyed
seed draws (local-net's BFS and labels), ``dense`` is one eigensolve of a
small dense matrix (rad-drop's whole-graph solves, n <= 400),
``solves`` adds ten tiny eigensolves, where call overhead dominates, to it
(local-global's many tiny ball solves and the mid-size solves of its
largest balls), and ``large`` is one 512 x 512 eigensolve (second-eig's
full spectra of order 256 to 4096). None of them calls spectop, so a
change to spectop never moves the probe. The README gives the traces the
choice rests on: a kernel that tracks one workload to 5% can be off by 20%
or more on another, which is why the kernel differs by workload.

The workload process runs its kernel between checks, about once per
``INTERVAL_S``, outside every timed region. A factor is the kernel's
reference time divided by its median time over some samples. Each check's
time is multiplied by the factor of the samples taken within ``WINDOW_S``
of it (``local_factors``), because the host's speed can change within a
pass; a pass's wall time is the sum of its scaled checks plus the time
between checks scaled by the factor of the whole pass; set-up times are
scaled by the run's median pass factor. A reported time is therefore in
seconds of a machine on which the kernel takes its reference time: it
changes when spectop gets faster or slower, and much less when the host
does. The raw times and the pass factors are kept in the result file.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from collections import deque
from time import perf_counter

import numpy as np
import scipy.linalg

INTERVAL_S = 0.05  # one kernel run per this much time (0.5 s for "large"): 1-5% of it
MAX_BURST = 20  # kernel runs at most in one go, after a long check
WINDOW_S = 1.0  # a check is scaled by the kernel runs this close to it,
MIN_LOCAL = 20  # or by at least this many runs nearest to it

_N = 300
# A fixed sparse graph (a circulant of degree 4) as adjacency lists.
_ADJ = [[(v + d) % _N for d in (1, -1, 7, -7)] for v in range(_N)]


def _symmetric(n: int, seed: int) -> np.ndarray:
    a = np.random.default_rng(seed).standard_normal((n, n))
    return a + a.T


_TINY = [_symmetric(16, s) for s in range(10)]
_M64 = _symmetric(64, 1)
_SMALL = _symmetric(160, 0)
_LARGE = _symmetric(512, 2)


def mixed_kernel() -> int:
    """The mix local-net spends its time on, written without spectop:
    breadth-first search over ``_ADJ`` into a numpy distance array, keyed
    ``SeedSequence`` draws, and a few tiny eigensolves."""
    dist = np.full(_N, -1, dtype=np.int64)
    dist[0] = 0
    queue = deque([0])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in _ADJ[u]:
            if dist[v] == -1:
                dist[v] = du + 1
                queue.append(v)
    bits = 0
    for key in range(20):
        bits += int(np.random.SeedSequence([7, key]).generate_state(1, dtype=np.uint64)[0]) & 1
    for a in _TINY[:3]:
        scipy.linalg.eigvalsh(a)
    scipy.linalg.eigvalsh(_M64)
    return bits


def dense_kernel() -> float:
    """Eigenvalues of one 160 x 160 matrix, by the solver spectop uses."""
    return float(scipy.linalg.eigvalsh(_SMALL)[-1])


def solves_kernel() -> float:
    """Eigenvalues of ten 16 x 16 matrices and of one 160 x 160 matrix."""
    return sum(float(scipy.linalg.eigvalsh(a)[-1]) for a in _TINY) + dense_kernel()


def large_kernel() -> float:
    """Eigenvalues of one 512 x 512 matrix."""
    return float(scipy.linalg.eigvalsh(_LARGE)[-1])


KERNELS = {"mixed": mixed_kernel, "dense": dense_kernel, "solves": solves_kernel,
           "large": large_kernel}
KERNEL_OF = {
    "rad-drop": "dense",
    "local-global": "solves",
    "local-net": "mixed",
    "second-eig": "large",
}
# "large" takes about 20 ms, so it runs ten times less often than the others.
INTERVAL_OF = {"large": 10 * INTERVAL_S}
# About each kernel's median time on the machine the benchmark was written on
# (2 cores, Python 3.11.7, OpenBLAS with one thread). They only set the scale
# of the reported times; changing one would move every time scaled by it, so
# they stay fixed.
REFERENCE_S = {"mixed": 0.001, "dense": 0.0015, "solves": 0.002, "large": 0.02}


class Probe:
    """Times of one kernel, with the time spent running it."""

    def __init__(self, kernel: str) -> None:
        self.kernel = kernel
        self._fn = KERNELS[kernel]
        self._interval = INTERVAL_OF.get(kernel, INTERVAL_S)
        self.samples: list[float] = []
        self.stamps: list[float] = []  # when each run ended
        self.spent = 0.0
        self._last = perf_counter()

    def sample(self) -> None:
        t0 = perf_counter()
        self._fn()
        t1 = perf_counter()
        self.samples.append(t1 - t0)
        self.spent += t1 - t0
        self.stamps.append(t1)
        self._last = t1

    def maybe(self) -> None:
        """Run the kernel once per interval gone by since its last run (at
        most ``MAX_BURST`` times), so that the samples are spread in
        proportion to time, however long the checks in between are."""
        due = int((perf_counter() - self._last) / self._interval)
        for _ in range(min(due, MAX_BURST)):
            self.sample()

    def count(self) -> int:
        return len(self.samples)

    def factor(self, lo: int = 0) -> float:
        """The reference time over the median time of samples ``lo:``."""
        return REFERENCE_S[self.kernel] / statistics.median(self.samples[lo:])

    def local_factors(self, starts, times, lo: int = 0) -> list[float]:
        """For each check (start ``starts[i]``, duration ``times[i]``), the
        reference time over the median time of the samples from ``lo`` on
        that ended within ``WINDOW_S`` of the check, widened on both sides to
        at least ``MIN_LOCAL`` samples."""
        stamps, out = self.stamps, []
        for a, t in zip(starts, times):
            i = max(lo, bisect_left(stamps, a - WINDOW_S))
            j = bisect_right(stamps, a + t + WINDOW_S)
            while j - i < MIN_LOCAL and (i > lo or j < len(stamps)):
                i, j = max(lo, i - 1), min(len(stamps), j + 1)
            out.append(REFERENCE_S[self.kernel] / statistics.median(self.samples[i:j]))
        return out
