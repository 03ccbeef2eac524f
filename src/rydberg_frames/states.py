"""Coherent states of the fixed-n shell.

A shell state is stored as one complex table a[l, n-1+m] over the |l m>
basis, 0 <= l <= n-1, zero where |m| > l. The two commuting spins
j = (n-1)/2 that generate the shell give the angular momentum L = J1 + J2 and
the scaled Runge-Lenz vector K = J2 - J1. An elliptic state is the product
of two spin-j coherent states. The commands send only the two-axis state,
whose spins lie on the equator, and its projection onto each l has a closed
form: one recurrence, running powers and exact row weights, in +, x, / and
sqrt alone. The commands write these tables (`state`) or evaluate them
through the closed-form fidelities of `povm_so3`. The coupling of a general
two-spin table (eigensolved blocks and the exact Racah sum), the rotations
and the L and K dispersions are test oracles (`tests/cg_oracle.py`,
`tests/rotation_oracle.py`, `tests/shell_table.py`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .angmom import MAX_N

_NORM_TOL = 1e-8


@lru_cache(maxsize=4)
def _outside(n: int) -> np.ndarray:
    """Mask of the entries |m| > l of the table[l, n-1+m] of an n-shell state."""
    mask = np.abs(np.arange(2 * n - 1) - (n - 1)) > np.arange(n)[:, None]
    mask.setflags(write=False)
    return mask


@dataclass
class WaveFunction:
    """Normalized n-shell state; table[l, n-1+m] holds a_{lm}, zero where |m| > l."""

    n: int
    table: np.ndarray

    def __post_init__(self):
        if not 2 <= self.n <= MAX_N:
            raise ValueError(f"n must lie in [2, MAX_N = {MAX_N}], got {self.n}")
        self.table = np.asarray(self.table, dtype=complex)
        if self.table.shape != (self.n, 2 * self.n - 1):
            raise ValueError(f"table shape {self.table.shape} is not {(self.n, 2 * self.n - 1)}")
        if self.table[_outside(self.n)].any():
            raise ValueError("table has a nonzero entry outside |m| <= l")
        if not abs(self.norm() - 1.0) <= _NORM_TOL:  # false for NaN as well
            raise ValueError(f"state norm {self.norm()!r} is not 1")

    def norm(self) -> float:
        return math.sqrt(float((np.square(self.table.real) + np.square(self.table.imag)).sum()))

    def m0_amplitudes(self) -> np.ndarray:
        """The a_{l0} column of the table (a view), one complex amplitude per l."""
        return self.table[:, self.n - 1]

    def to_json(self) -> str:
        """The JSON text {n, entries: [{l, m, re, im}]}, entries by l then m.

        The bytes of `json.dumps(..., indent=2) + "\\n"`, built in one pass:
        json writes a finite float as its repr, and the norm check refuses NaN
        and inf, so every entry is finite.
        """
        n = self.n
        re, im = self.table.real.tolist(), self.table.imag.tolist()
        entries = ",\n".join(
            f'    {{\n      "l": {l},\n      "m": {m},\n'
            f'      "re": {re[l][n - 1 + m]!r},\n      "im": {im[l][n - 1 + m]!r}\n    }}'
            for l in range(n) for m in range(-l, l + 1))
        return f'{{\n  "n": {n},\n  "entries": [\n{entries}\n  ]\n}}\n'


# n(2n-1) doubles per shell, 0.16 MB at n = MAX_N; commands walk their shells
# one at a time
@lru_cache(maxsize=4)
def _row_weights(n: int) -> np.ndarray:
    """W[l, n-1+M] = sqrt((2l+1) (2j)!^2 (l+M)! (l-M)! / ((2j-l)! (2j+l+1)! l!^2)), 2j = n-1.

    Zero where |M| > l, and even in M. The ratio under each root is one
    division of Python ints, which rounds correctly, so every weight is within
    an ulp of the exact value. W[l, 0] is the magnitude of the extreme Stark
    column, and W[l, M] scales the two-axis state's row l.
    """
    fact = [math.factorial(k) for k in range(2 * n)]
    top = fact[n - 1] ** 2
    weights = np.zeros((n, 2 * n - 1))
    for l in range(n):
        num, den = (2 * l + 1) * top, fact[n - 1 - l] * fact[n + l] * fact[l] ** 2
        row = [math.sqrt(num * fact[l + big_m] * fact[l - big_m] / den) for big_m in range(l + 1)]
        weights[l, n - 1 : n + l] = row
        weights[l, n - 1 - l : n] = row[::-1]
    weights.setflags(write=False)
    return weights


def alice_two_axis_state(n: int, e: float) -> WaveFunction:
    """Elliptic signal with Runge-Lenz axis k = x and angular momentum axis ell = y.

    Its two spin coherent states lie on the equator at azimuths pi/2 +- zeta,
    zeta = arcsin(e), so <K> = (n-1) e x and <L> = (n-1) c y, c = sqrt(1-e^2).
    In closed form, with 2j = n-1,
    a[l, M] = (-i)^(2j-l+M) e^(2j-l) t_l(l+M) W[l, M],
    where t_l(k) is the coefficient of u^k v^(2l-k) in (u^2/2 + c uv + v^2/2)^l
    and W is `_row_weights`. The l-part of a product of two spin coherent
    states is their spinors' determinant to the power 2j-l times the
    symmetric product of l copies of each spinor, and the highest-weight
    Clebsch-Gordan coefficient fixes its constant (Edmonds, Angular Momentum
    in Quantum Mechanics, ch. 3). For the two equatorial spinors the
    determinant is e times a quarter turn, and the symmetric product is the
    quadratic above in x = e^(i pi/4) u, y = e^(-i pi/4) v.

    t is one recurrence over l whose terms are all >= 0, and e^(2j-l) a
    running product, so nothing cancels; no coupling tensor, eigensolver or
    reduction enters, and the bits do not depend on the BLAS or SIMD target.
    t and W are even in M, so a[l, -M] = (-1)^(2j-l) conj(a[l, M]) exactly,
    and the quarter turns place each value, signed, in the real or the
    imaginary part, so every component that vanishes in theory is +0.0.
    """
    if not 0.0 <= e <= 1.0:
        raise ValueError(f"eccentricity must lie in [0, 1], got {e}")
    c = math.sqrt((1.0 - e) * (1.0 + e))
    t = np.zeros((n, 2 * n + 1))  # t[l, n+M] = t_l(l+M), bordered by zeros
    t[0, n] = 1.0
    for l in range(1, n):
        t[l, 1:-1] = 0.5 * (t[l - 1, :-2] + t[l - 1, 2:]) + c * t[l - 1, 1:-1]
    powers = np.cumprod(np.append(1.0, np.full(n - 1, e)))[::-1]  # e^(2j-l) at l
    values = t[:, 1:-1]  # t_l(l+M) at [l, n-1+M], weighted in place
    values *= _row_weights(n)
    values *= powers[:, None]
    quarter_turns = np.array([1.0, -1.0j, -1.0, 1.0j])  # (-i)^q
    # (-i)^(2j-l+M) as the turn of row l times the turn of column M, each exact
    table = values * quarter_turns[(n - 1 - np.arange(n)) % 4, None]
    table *= quarter_turns[np.arange(1 - n, n) % 4]
    table += 0.0  # -0.0 + 0.0 is +0.0: the zero components print as 0.0
    return WaveFunction(n, table)


def circular_state(n: int) -> WaveFunction:
    """The |l=n-1, m=n-1> state: zero eccentricity, maximal angular momentum."""
    table = np.zeros((n, 2 * n - 1), dtype=complex)
    table[n - 1, 2 * n - 2] = 1.0
    return WaveFunction(n, table)


def extreme_stark(n: int) -> WaveFunction:
    """Eigenstate of K_z with eigenvalue n-1: coefficients C^{jj l}_{-j j 0} at m=0.

    The column has the closed form, with 2j = n-1 (Edmonds, Angular Momentum
    in Quantum Mechanics),
    <j -j; j j | l 0> = (-1)^(n-1-l) sqrt((2l+1) (n-1)!^2 / ((n-1-l)! (n+l)!)),
    whose magnitude is the M = 0 column of `_row_weights`, within an ulp of
    the exact value.
    """
    table = np.zeros((n, 2 * n - 1), dtype=complex)
    table[:, n - 1] = (-1) ** (n - 1 - np.arange(n)) * _row_weights(n)[:, n - 1]
    return WaveFunction(n, table)
