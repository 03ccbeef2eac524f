"""The size limits of the shell and of the Monte Carlo sample counts.

Every kernel names its spin j by the dimension n = 2j + 1 of the
representation, an integer, so half-odd spins need no special form. No
Clebsch-Gordan coefficient, spin matrix or Wigner d-matrix is evaluated in
the package: the commands' coherent states lie on the equator, where
`states.alice_two_axis_state` needs only its closed form. The exact Racah
sum, the eigensolved coupling blocks and their ladder, the spin coherent
states, spin matrices, d-matrices and L/K moments are test oracles
(`tests/cg_oracle.py`, `tests/rotation_oracle.py`, `tests/shell_table.py`).
"""

from __future__ import annotations

# Largest supported spin: the range over which the tests check the shell
# states against the exact Racah oracle. The shell n has j = (n-1)/2 <= MAX_J.
MAX_J = 50
MAX_N = 2 * MAX_J + 1

# Largest Monte Carlo sample count per shell. `so4` and `ortho` hold one
# 65,536-sample block per process (and `so4`'s dump a ring of rendered blocks)
# whatever the count, so this bounds only the time.
MAX_SAMPLES = 10**8
