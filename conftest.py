"""Test-session setup shared by tests/ and benchmarks/.

The suite's arrays are small, so a second BLAS thread only spins: pin
OpenBLAS, OpenMP and MKL to one thread unless the environment already chose.
BLAS reads these when numpy is first imported, which happens after this file
is loaded: no plugin pytest loads first imports numpy.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
