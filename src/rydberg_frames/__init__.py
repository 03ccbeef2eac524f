"""Direction transmission with coherent states of the hydrogenic n-shell.

The modules are the API; import names from them: angmom (size limits),
geometry (directions), states (shell coherent states), povm_so3 (covariant
measurement), povm_so4 (product measurement and sampling), ortho
(orthogonalization gain) and cli (the command-line front end).
"""

import os

# before numpy loads: one BLAS thread unless the user says otherwise, so the
# Monte Carlo path forks a single-threaded process and runs one level of workers
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
