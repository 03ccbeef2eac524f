"""Angular momentum kernels: the spin-j ladder and the size limits.

The one ladder <m+1| J+ |m> = sqrt((j-m)(j+m+1)) (`ladder_factors`) is what
`states.coupling_tensor` couples the two spins of a shell with, one block
per total projection M >= 0. The spin coherent states, spin matrices, Wigner
d-matrices and L/K moments are test oracles (`tests/rotation_oracle.py`,
`tests/shell_table.py`): the commands' coherent states lie on the equator,
where `states.alice_two_axis_state` needs only their binomial magnitudes.

Every kernel names its spin j by the dimension n = 2j + 1 of the
representation, an integer, so half-odd spins need no special form. No
Clebsch-Gordan coefficient is evaluated term by term here: the exact Racah
sum is a test oracle (`tests/cg_oracle.py`). All functions here are pure and
safe to call concurrently.
"""

from __future__ import annotations

import numpy as np

# Largest supported spin: the range over which the tests check the coupling
# kernels against the exact Racah oracle. The shell n has j = (n-1)/2 <= MAX_J.
MAX_J = 50
MAX_N = 2 * MAX_J + 1

# Largest Monte Carlo sample count per shell. `so4` and `ortho` hold one
# 65,536-sample block per process (and `so4`'s dump a ring of rendered blocks)
# whatever the count, so this bounds only the time.
MAX_SAMPLES = 10**8


def ladder_factors(n: int) -> np.ndarray:
    """<m+1| J+ |m> = sqrt((j-m)(j+m+1)) of spin j = (n-1)/2, m = -j .. j-1."""
    j = (n - 1) / 2.0
    m = np.arange(n - 1) - j
    return np.sqrt((j - m) * (j + m + 1.0))

