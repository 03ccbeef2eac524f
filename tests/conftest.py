import os

# The test modules import numpy before rydberg_frames, which sets this too; set
# here, it keeps OpenBLAS single-threaded, so the process the Monte Carlo tests
# fork has one thread (Python 3.12+ warns when a threaded process forks).
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
