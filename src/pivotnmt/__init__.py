"""Desk-scale pivot-based transfer learning for sequence-to-sequence translation.

Importing the package pins the math kernels to one thread: a float32 product
can have different bytes at one and at two OpenBLAS threads, so unpinned
checkpoint hashes would depend on the host's cores. OpenBLAS reads the
variables when NumPy loads, and this module imports no NumPy. If NumPy was
loaded earlier under another setting, the import warns once on stderr and
`BLAS_PINNED` is False.
"""

import os
import sys

__version__ = "0.1.0"

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
BLAS_PINNED = "numpy" not in sys.modules or all(os.environ.get(v) == "1" for v in THREAD_VARIABLES)
os.environ.update(dict.fromkeys(THREAD_VARIABLES, "1"))
if not BLAS_PINNED:
    sys.stderr.write("pivotnmt: warning: NumPy was loaded before pivotnmt without one BLAS "
                     "thread; checkpoint hashes may differ from a pinned run\n")
