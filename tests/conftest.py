# The test modules import numpy before rydberg_frames; importing the package
# here first sets its BLAS default while numpy is not yet loaded, so OpenBLAS
# stays single-threaded and the process the Monte Carlo tests fork has one
# thread (Python 3.12+ warns when a threaded process forks).
import rydberg_frames  # noqa: F401
