"""Clebsch-Gordan coefficients by the Racah sum: the exact oracle for the coupling kernels.

`states.coupling_tensor` builds the coupling blocks of M >= 0 by an
eigensolve and `states.extreme_stark` uses the closed form of one column;
both are checked against this term-by-term sum in exact rational arithmetic.
The blocks of every M, the M < 0 ones by parity, the dense cube of them, and
the general coupling of a two-spin table through them (one reduction per M,
or slice by slice through the cube) are the tests' view of the same
coefficients by (m1, m2).
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from rydberg_frames.states import WaveFunction, coupling_tensor


@lru_cache(maxsize=4)  # 5.5 MB at n = MAX_N
def signed_blocks(n: int) -> tuple:
    """The coupling block of every M = 1-n .. n-1, at index n-1+M: those of
    M >= 0 from `coupling_tensor`, and the block of -M by the parity
    C(-m1, -m2) = (-1)^(2j-l) C(m1, m2), its columns reversed."""
    parity = (-1.0) ** (n - 1 - np.arange(n))
    upper = coupling_tensor(n)
    lower = [parity[big_m:, None] * upper[big_m][:, ::-1] for big_m in range(n - 1, 0, -1)]
    for block in lower:
        block.setflags(write=False)
    return (*lower, *upper)


@lru_cache(maxsize=4)  # 8 MB at n = MAX_N
def dense_coupling(n: int) -> np.ndarray:
    """C^{jj l}_{m1 m2, m1+m2} for j = (n-1)/2, indexed [l, j+m1, j+m2], from the per-M blocks."""
    dense = np.zeros((n, n, n))
    for big_m, block in zip(range(1 - n, n), signed_blocks(n)):
        i1 = np.arange(max(big_m, 0), min(n, n + big_m))  # the block's columns, m1 ascending
        dense[abs(big_m):, i1, n - 1 + big_m - i1] = block
    dense.setflags(write=False)
    return dense


def from_product_amplitudes(n: int, psi: np.ndarray) -> WaveFunction:
    """Couple a two-spin amplitude table psi[j+m1, j+m2] into the |l m> table.

    Column M takes the antidiagonal m1 + m2 = M of psi, m1 ascending, through
    the block of M: one reduction per M. Entries with |M| > l are never
    written.
    """
    flipped = psi[:, ::-1]  # [j+m1, j-m2]: its diagonal -M holds m1 + m2 = M
    table = np.zeros((n, 2 * n - 1), dtype=complex)
    for big_m, block in zip(range(1 - n, n), signed_blocks(n)):
        table[abs(big_m):, n - 1 + big_m] = np.add.reduce(block * flipped.diagonal(-big_m), axis=1)
    return WaveFunction(n, table)


def dense_from_product_amplitudes(n: int, psi: np.ndarray) -> WaveFunction:
    """Couple psi[j+m1, j+m2] through the dense cube: its m1 slices added in
    ascending order into the |l m> table, one n x n product at a time."""
    coupling = dense_coupling(n)
    table = np.zeros((n, 2 * n - 1), dtype=complex)
    for i1 in range(n):
        table[:, i1 : i1 + n] += coupling[:, i1, :] * psi[i1]
    return WaveFunction(n, table)


@dataclass(frozen=True)
class HalfInt:
    """Integer or half-odd-integer quantum number, stored as twice its value."""

    twice: int

    @classmethod
    def of(cls, value) -> "HalfInt":
        if isinstance(value, HalfInt):
            return value
        doubled = round(2 * float(value))
        if abs(2 * float(value) - doubled) > 1e-9:
            raise ValueError(f"not a half-integer: {value!r}")
        return cls(int(doubled))

    def __float__(self) -> float:
        return self.twice / 2.0

    def __repr__(self) -> str:
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"


def _twice(value) -> int:
    return HalfInt.of(value).twice


def _check_projection(tj: int, tm: int):
    if tj < 0:
        raise ValueError(f"negative angular momentum magnitude: {tj / 2}")
    if abs(tm) > tj or (tj - tm) % 2 != 0:
        raise ValueError(f"projection {tm / 2} invalid for j = {tj / 2}")


def clebsch_gordan(j1, j2, l, m1, m2, m) -> float:
    """Clebsch-Gordan coefficient <j1 m1; j2 m2 | l m>, Condon-Shortley phases.

    Evaluated with the Racah finite sum. The alternating sum and the squared
    prefactor are exact rationals over integer factorials, and the square of
    the coefficient is formed from them as one exact rational, which cannot
    overflow since it is at most 1. The returned double is therefore within
    an ulp of the exact value at every j up to MAX_J; a log-factorial route loses just
    enough near j = 15 to break 1e-12 orthogonality checks.
    Arguments may be ints, floats, or HalfInt; half-odd values are fine.
    Raises ValueError for a violated triangle rule or out-of-range
    projections, and returns 0.0 for the selection rule m != m1 + m2.
    """
    tj1, tj2, tl = _twice(j1), _twice(j2), _twice(l)
    tm1, tm2, tm = _twice(m1), _twice(m2), _twice(m)
    for tj, tmm in ((tj1, tm1), (tj2, tm2), (tl, tm)):
        _check_projection(tj, tmm)
    if not abs(tj1 - tj2) <= tl <= tj1 + tj2 or (tj1 + tj2 + tl) % 2 != 0:
        raise ValueError(
            f"triangle rule violated for (j1, j2, l) = ({tj1 / 2}, {tj2 / 2}, {tl / 2})"
        )
    if tm != tm1 + tm2:
        return 0.0

    fact = math.factorial
    pre2 = Fraction(
        (tl + 1)
        * fact((tj1 + tj2 - tl) // 2)
        * fact((tj1 - tj2 + tl) // 2)
        * fact((-tj1 + tj2 + tl) // 2)
        * fact((tl + tm) // 2)
        * fact((tl - tm) // 2)
        * fact((tj1 - tm1) // 2)
        * fact((tj1 + tm1) // 2)
        * fact((tj2 - tm2) // 2)
        * fact((tj2 + tm2) // 2),
        fact((tj1 + tj2 + tl) // 2 + 1),
    )

    k_min = max(0, (tj2 - tl - tm1) // 2, (tj1 - tl + tm2) // 2)
    k_max = min((tj1 + tj2 - tl) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
    total = Fraction(0)
    for k in range(k_min, k_max + 1):
        den = (
            fact(k)
            * fact((tj1 + tj2 - tl) // 2 - k)
            * fact((tj1 - tm1) // 2 - k)
            * fact((tj2 + tm2) // 2 - k)
            * fact((tl - tj2 + tm1) // 2 + k)
            * fact((tl - tj1 - tm2) // 2 + k)
        )
        total += Fraction(-1 if k & 1 else 1, den)
    if total == 0:
        return 0.0
    magnitude = math.sqrt(float(total * total * pre2))
    return -magnitude if total < 0 else magnitude
