"""Angular momentum kernels: the spin-j ladder and spin coherent states.

The one ladder <m+1| J+ |m> = sqrt((j-m)(j+m+1)) (`ladder_factors`) is what
`states.coupling_tensor` couples the two spins of a shell with, one block
per total projection. The coherent-state coefficients are formed from exact
integer binomials and running products, so their bits do not depend on which
SIMD loops numpy dispatches to. No command computes a spin matrix or a Wigner
d-matrix: the rotations and the L/K moments that check the states are test
oracles (`tests/rotation_oracle.py`, `tests/shell_table.py`).

Every kernel names its spin j by the dimension n = 2j + 1 of the
representation, an integer, so half-odd spins need no special form. No
Clebsch-Gordan coefficient is evaluated term by term here: the exact Racah
sum is a test oracle (`tests/cg_oracle.py`). All functions here are pure and
safe to call concurrently.
"""

from __future__ import annotations

import math

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


def coherent_coeffs(n: int, theta: float, phi: float) -> np.ndarray:
    """Coefficients of the spin-j = (n-1)/2 coherent state along (theta, phi).

    Returns the complex vector D^j_m(theta, phi) indexed by m = -j .. j
    ascending, i.e. the expansion of exp(-i J_z phi) exp(-i J_y theta) |j j>
    in the |j m> basis:

        D^j_m = binom(2j, j+m)^(1/2) cos(theta/2)^(j+m) sin(theta/2)^(j-m) e^(-i m phi)
    """
    if not 1 <= n <= MAX_N:
        raise ValueError(f"dimension {n} outside [1, MAX_N = {MAX_N}]")
    tj = n - 1
    # the correctly rounded root of each exact binomial, and the powers by
    # running products: IEEE sqrt and multiply, whose bits no SIMD target of
    # numpy changes (its float exp, log and power loops differ between targets)
    root_binom = np.sqrt([float(math.comb(tj, k)) for k in range(n)])
    cos_pow = np.cumprod(np.append(1.0, np.full(tj, math.cos(theta / 2.0))))
    sin_pow = np.cumprod(np.append(1.0, np.full(tj, math.sin(theta / 2.0))))
    mag = root_binom * cos_pow * sin_pow[::-1]
    m_values = np.arange(n) - tj / 2.0
    return mag * np.exp(-1j * m_values * phi)
