"""Coherent states of the fixed-n shell.

A shell state is stored as one complex table a[l, n-1+m] over the |l m>
basis, 0 <= l <= n-1, zero where |m| > l. The two commuting spins
j = (n-1)/2 that generate the shell give the angular momentum L = J1 + J2 and
the scaled Runge-Lenz vector K = J2 - J1. In the two-spin picture a state is
one amplitude table psi[j+m1, j+m2], and an elliptic state is the product of
two spin-j coherent states, psi = c1 (x) c2, coupled into the |l m> table by
the Clebsch-Gordan coefficients, which are nonzero only where m1 + m2 = M:
each column M of the table is one real block applied to one antidiagonal of
psi. The commands write these tables (`state`) or evaluate them through the
closed-form fidelities of `povm_so3`; no command rotates a state or forms an
L or K moment. The rotation covariance and the minimal L and K dispersions
are checked by the test oracles (`tests/rotation_oracle.py`,
`tests/shell_table.py`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .angmom import MAX_N, ladder_factors

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


# about 2n^3/3 doubles per shell, 5.5 MB at n = MAX_N; commands walk their
# shells one at a time
@lru_cache(maxsize=4)
def coupling_tensor(n: int) -> tuple:
    """C^{jj l}_{m1 m2 M} for j = (n-1)/2, as one read-only real block per M.

    blocks[n-1+M], M = 1-n .. n-1, has rows l = |M| .. n-1 and columns m1
    ascending over the m1 with |M - m1| <= j: row l is |l M> in the basis
    |m1, M-m1>. Each block is square and orthogonal.

    Built one total projection M >= 0 at a time: in the |m1, M-m1> basis the
    coupled L^2 = J1^2 + J2^2 + 2 J1z J2z + J1+ J2- + J1- J2+ is a real
    symmetric tridiagonal block whose eigenvalues l(l+1), l = M .. 2j, ascend
    with l. Condon-Shortley phases make the m1 = +j entry of every |l M>
    positive, but that entry can lie below rounding (about 1e-30 for l = 2j,
    M = 0 at n = 101), so signs are fixed through quantities of order one.
    The highest-weight state |M M> has entries of sign (-1)^(j-m1), so its
    alternating sum is positive. Every other |l M> takes the sign that makes
    its overlap with L- |l M+1> positive, an overlap of magnitude
    sqrt((l+M+1)(l-M)) >= 1. The block of -M follows from
    C(-m1, -m2) = (-1)^(2j-l) C(m1, m2), its columns reversed. The exact Racah
    sum (`tests/cg_oracle.py`) is the test oracle, not part of the build.
    """
    j = (n - 1) / 2.0
    m = np.arange(n) - j
    ladder = np.append(ladder_factors(n), 0.0)  # <m+1| J+ |m> at index j+m
    parity = (-1.0) ** (n - 1 - np.arange(n))
    blocks = [None] * (2 * n - 1)
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
        above[ls[:, None], i1[None, :]] = vecs
        blocks[n - 1 + big_m] = vecs
        if big_m:
            blocks[n - 1 - big_m] = parity[big_m:, None] * vecs[:, ::-1]
    for block in blocks:
        block.setflags(write=False)
    return tuple(blocks)


def from_product_amplitudes(n: int, psi: np.ndarray) -> WaveFunction:
    """Couple a two-spin amplitude table psi[j+m1, j+m2] into the |l m> table.

    Column M takes the antidiagonal m1 + m2 = M of psi, m1 ascending, through
    the block of M: one reduction per M and no BLAS call, so the bits do not
    depend on the BLAS build. Entries with |M| > l are never written.
    """
    blocks = coupling_tensor(n)
    flipped = psi[:, ::-1]  # [j+m1, j-m2]: its diagonal -M holds m1 + m2 = M
    table = np.zeros((n, 2 * n - 1), dtype=complex)
    for big_m in range(1 - n, n):
        table[abs(big_m):, n - 1 + big_m] = np.add.reduce(
            blocks[n - 1 + big_m] * flipped.diagonal(-big_m), axis=1)
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
    <j -j; j j | l 0> = (-1)^(n-1-l) sqrt((2l+1) (n-1)!^2 / ((n-1-l)! (n+l)!)).
    The ratio under the root is one division of Python ints, which rounds
    correctly, so every amplitude is within an ulp of the exact value.
    """
    fact = math.factorial
    top = fact(n - 1) ** 2
    table = np.zeros((n, 2 * n - 1), dtype=complex)
    for l in range(n):
        square = (2 * l + 1) * top / (fact(n - 1 - l) * fact(n + l))
        table[l, n - 1] = (-1) ** (n - 1 - l) * math.sqrt(square)
    return WaveFunction(n, table)
