"""Host speed reference: a fixed kernel timed around every measurement.

The benchmark runs on shared virtual machines whose CPU speed drifts by
tens of percent over minutes, so two runs of the same code a few minutes
apart differ by as much as a real regression.  Every measuring process
therefore also times a fixed kernel of the same kind of work as the
program - Python-level Newton steps on a 12-unknown system, each a
device-like evaluation, an ``np.add.at`` stamp scatter, a mat-vec and
an LU factor-and-solve - right before and right after the work it
measures, never during it.  A time metric is reported at the reference
speed::

    reported = measured * REFERENCE_S / kernel_s

with ``kernel_s`` the median kernel pass around that work and
``REFERENCE_S`` the median pass on the machine the benchmark was tuned
on.  A change to the program moves ``measured`` and leaves ``kernel_s``
alone; a slower host stretches both.  ``run.py`` prints the host scale
beside the reported values.

Usage: ``python perfbench/calib.py`` prints the median pass on this
machine.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.linalg import lu_factor, lu_solve

#: Median kernel pass [s] on the machine the benchmark was tuned on (see
#: ``README.md``).  Changing it rescales every reported time.
REFERENCE_S = 0.020
#: Kernel passes per :func:`sample`; a sample takes about 0.25 s.  With
#: 7 passes of half the length the kernel spread more than the work it
#: scales.
REPEATS = 12
#: Newton steps per pass, and unknowns of the system.
STEPS = 800
N = 12


def kernel() -> float:
    """One pass of the fixed work; returns a checksum of its result."""
    rng = np.random.default_rng(12345)
    base = rng.random((N, N)) + N * np.eye(N)
    rows = rng.integers(0, N, 4 * N)
    cols = rng.integers(0, N, 4 * N)
    flat = rows * N + cols
    rhs = rng.random(N)
    x = np.zeros(N)
    for _ in range(STEPS):
        g = base.copy()
        dev = np.exp(np.minimum(x[rows] - x[cols], 1.0))
        np.add.at(g.reshape(-1), flat, 1e-3 * dev)
        f = g @ x - rhs
        x = x - lu_solve(lu_factor(g, check_finite=False), f,
                         check_finite=False)
    return float(x.sum())


def sample() -> list[float]:
    """Wall times of ``REPEATS`` kernel passes [s]."""
    out = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - start)
    return out


def scale(samples: list) -> float:
    """Factor from this host's speed, as *samples* of :func:`sample`
    measured it, to the reference speed."""
    return REFERENCE_S / statistics.median(samples)


if __name__ == "__main__":
    passes = sample() + sample() + sample()
    print(f"median kernel pass {statistics.median(passes):.6f} s "
          f"(reference {REFERENCE_S} s), min {min(passes):.6f} s, "
          f"max {max(passes):.6f} s")
