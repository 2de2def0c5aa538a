"""Repository-wide test setup: one BLAS thread in every test process.

OpenBLAS reads its thread count once, when numpy loads it, and pytest
loads this file before any test module imports numpy.  On a small
host a multi-threaded OpenBLAS pays to wake its idle pool on each small
multi-column solve (~0.8 ms per 16-unknown ``dgetrs`` after the machine
sat idle), which turns single wall-time comparisons into noise.  The
daemons and workers the tests start inherit the setting.  A value
already set in the environment wins.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
              "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
