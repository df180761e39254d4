"""Import the package before any test module imports NumPy, so its one-thread
BLAS pin takes effect and the tests run the numerics of the CLI and the
benchmark."""

import pivotnmt  # noqa: F401
