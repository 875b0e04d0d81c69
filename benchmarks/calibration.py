"""A fixed reference computation that measures how fast the host runs now.

The benchmark's host changes speed by up to 1.5x for seconds to minutes at a
time (contention from other tenants; see README.md).  Every timed round is
bracketed by runs of this kernel, and the round's wall time is scaled by
``REFERENCE_S / kernel seconds``: the time the round would take on a host
where the kernel takes ``REFERENCE_S``.  The kernel does not call ``gsp``, so
a change to the package cannot move it.  Its mix follows the package's hot
paths: Python sets of index tuples (edge-list checks), short numpy vector
updates in a Python loop (coordinate descent), and small dense Cholesky
solves (closed-loop factorizations).
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.linalg

#: Kernel seconds of the reference host; normalized times are in its units.
REFERENCE_S = 0.12

#: Kernel runs per reading; a reading is their median.
READING_RUNS = 3

_N = 120
_PAIRS = 6000
_SWEEP = 130


class Calibration:
    """The kernel with its fixed inputs."""

    def __init__(self):
        rng = np.random.Generator(np.random.PCG64(0))
        self.pairs = np.array([(i, j) for i in range(_N) for j in range(i + 1, _N)][:_PAIRS])
        a = rng.random((_N, _N))
        self.A = a @ a.T + _N * np.eye(_N)

    def kernel(self) -> float:
        acc = 0.0
        for _ in range(18):
            acc += len({(int(i), int(j)) for i, j in self.pairs})
        u = self.A[:, 3] - self.A[:, 5]
        ai, aj = self.pairs[:_SWEEP, 0], self.pairs[:_SWEEP, 1]
        hv = np.zeros(_SWEEP)
        for k in range(4500):
            col = u[ai] - u[aj]
            hv += 0.5 * col * col
            acc += float(hv[k % _SWEEP])
        for _ in range(30):
            factor = scipy.linalg.cholesky(self.A, lower=True)
            acc += float(scipy.linalg.cho_solve((factor, True), self.A)[0, 0])
        return acc

    def seconds(self, runs: int = READING_RUNS) -> float:
        """Median wall seconds of ``runs`` kernel runs."""
        times = []
        for _ in range(runs):
            t0 = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)
