"""Pin the math kernels to one thread, as `perfbench/run.py` does.

Checkpoint hashes depend on the BLAS thread count, so the tests run the same
numerics as the benchmark. OpenBLAS reads these variables when NumPy loads,
and pytest imports this file before any test module imports NumPy.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
