"""Clebsch-Gordan coefficients of two spins j: the eigensolved coupling blocks
and the Racah sum, the tests' oracles for the shell states.

`coupling_tensor` builds the coupling blocks of M >= 0 by an eigensolve
through the spin ladder (`ladder_factors`), and is checked against the
term-by-term Racah sum (`clebsch_gordan`) in exact rational arithmetic. The
package builds no coupling: `states.alice_two_axis_state` and
`states.extreme_stark` are closed forms, checked against both. The blocks of
every M, the M < 0 ones by parity, the dense cube of them, and the general
coupling of a two-spin table through them into the complex |l m> table
a[l, n-1+m] (one reduction per M, or slice by slice through the cube) are the
tests' view of the same coefficients by (m1, m2).
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np


def ladder_factors(n: int) -> np.ndarray:
    """<m+1| J+ |m> = sqrt((j-m)(j+m+1)) of spin j = (n-1)/2, m = -j .. j-1."""
    j = (n - 1) / 2.0
    m = np.arange(n - 1) - j
    return np.sqrt((j - m) * (j + m + 1.0))


@lru_cache(maxsize=4)  # n(n+1)(2n+1)/6 doubles per shell, 2.8 MB at n = MAX_N
def coupling_tensor(n: int) -> tuple:
    """C^{jj l}_{m1 m2 M} for j = (n-1)/2 and M >= 0, as one read-only real block per M.

    blocks[M], M = 0 .. n-1, has rows l = M .. n-1 and columns m1 ascending
    over the m1 with |M - m1| <= j: row l is |l M> in the basis |m1, M-m1>.
    Each block is square and orthogonal. The blocks of M < 0 follow by
    parity, C(-m1, -m2) = (-1)^(2j-l) C(m1, m2) (`signed_blocks`).

    Built one total projection M at a time: in the |m1, M-m1> basis the
    coupled L^2 = J1^2 + J2^2 + 2 J1z J2z + J1+ J2- + J1- J2+ is a real
    symmetric tridiagonal block whose eigenvalues l(l+1), l = M .. 2j, ascend
    with l. Condon-Shortley phases make the m1 = +j entry of every |l M>
    positive, but that entry can lie below rounding (about 1e-30 for l = 2j,
    M = 0 at n = 101), so signs are fixed through quantities of order one.
    The highest-weight state |M M> has entries of sign (-1)^(j-m1), so its
    alternating sum is positive. Every other |l M> takes the sign that makes
    its overlap with L- |l M+1> positive, an overlap of magnitude
    sqrt((l+M+1)(l-M)) >= 1. The exact Racah sum (`clebsch_gordan`) is
    its oracle.
    """
    j = (n - 1) / 2.0
    m = np.arange(n) - j
    ladder = np.append(ladder_factors(n), 0.0)  # <m+1| J+ |m> at index j+m
    parity = (-1.0) ** (n - 1 - np.arange(n))
    blocks = [None] * n
    above = np.zeros((n, n + 1))  # [l, j+m1] amplitudes of |l M+1>
    for big_m in range(n - 1, -1, -1):
        i1 = np.arange(big_m, n)
        i2 = big_m + n - 1 - i1
        # J1+ J2- couples |i1, i2> to |i1+1, i2-1>
        coupling = ladder[i1[:-1]] * ladder[i2[1:]]
        block = (
            np.diag(2.0 * j * (j + 1.0) + 2.0 * m[i1] * m[i2])
            + np.diag(coupling, 1)
            + np.diag(coupling, -1)
        )
        ls = np.arange(big_m, n)
        # row k is l = M + k, stored by rows for the reductions over m1
        vecs = np.ascontiguousarray(np.linalg.eigh(block)[1].T)
        # L- = J1- + J2- applied to |l M+1>
        lowered = (ladder[i1] * above[ls[:, None], i1 + 1]
                   + ladder[i2] * above[ls[:, None], i1])
        signs = np.sign(np.einsum("la,la->l", vecs, lowered))
        signs[0] = np.sign(vecs[0] @ (-1.0) ** (n - 1 - i1))
        vecs *= signs[:, None]
        # swapping m1 and m2 reverses the columns and multiplies |l M> by
        # (-1)^(2j-l), which eigh holds only to rounding (1.5e-14 at n = 25):
        # averaging each row with its mirror makes that parity exact
        vecs = 0.5 * (vecs + parity[big_m:, None] * vecs[:, ::-1])
        vecs.setflags(write=False)
        above[ls[:, None], i1[None, :]] = vecs
        blocks[big_m] = vecs
    return tuple(blocks)


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


def from_product_amplitudes(n: int, psi: np.ndarray) -> np.ndarray:
    """Couple a two-spin amplitude table psi[j+m1, j+m2] into the |l m> table.

    Column M takes the antidiagonal m1 + m2 = M of psi, m1 ascending, through
    the block of M: one reduction per M. Entries with |M| > l are never
    written.
    """
    flipped = psi[:, ::-1]  # [j+m1, j-m2]: its diagonal -M holds m1 + m2 = M
    table = np.zeros((n, 2 * n - 1), dtype=complex)
    for big_m, block in zip(range(1 - n, n), signed_blocks(n)):
        table[abs(big_m):, n - 1 + big_m] = np.add.reduce(block * flipped.diagonal(-big_m), axis=1)
    return table


def dense_from_product_amplitudes(n: int, psi: np.ndarray) -> np.ndarray:
    """Couple psi[j+m1, j+m2] through the dense cube: its m1 slices added in
    ascending order into the |l m> table, one n x n product at a time."""
    coupling = dense_coupling(n)
    table = np.zeros((n, 2 * n - 1), dtype=complex)
    for i1 in range(n):
        table[:, i1 : i1 + n] += coupling[:, i1, :] * psi[i1]
    return table


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
