"""Coherent states of the fixed-n shell.

A shell state is stored as one complex table a[l, n-1+m] over the |l m>
basis, 0 <= l <= n-1, zero where |m| > l. The two commuting spins
j = (n-1)/2 that generate the shell give the angular momentum L = J1 + J2 and
the scaled Runge-Lenz vector K = J2 - J1. An elliptic state is the product
of two spin-j coherent states, coupled into the |l m> table by the
Clebsch-Gordan coefficients, one real block per M = m1 + m2 >= 0. The
commands send only the two-axis state, whose spins lie on the equator: its
table is real sums times quarter-turn phases, built in real arithmetic. The
commands write these tables (`state`) or evaluate them through the
closed-form fidelities of `povm_so3`. The coupling of a general two-spin
table, the rotations and the L and K dispersions are test oracles
(`tests/cg_oracle.py`, `tests/rotation_oracle.py`, `tests/shell_table.py`).
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


# n(n+1)(2n+1)/6 doubles per shell, 2.8 MB at n = MAX_N; commands walk their
# shells one at a time
@lru_cache(maxsize=4)
def coupling_tensor(n: int) -> tuple:
    """C^{jj l}_{m1 m2 M} for j = (n-1)/2 and M >= 0, as one read-only real block per M.

    blocks[M], M = 0 .. n-1, has rows l = M .. n-1 and columns m1 ascending
    over the m1 with |M - m1| <= j: row l is |l M> in the basis |m1, M-m1>.
    Each block is square and orthogonal. The blocks of M < 0 follow by
    parity, C(-m1, -m2) = (-1)^(2j-l) C(m1, m2), and no command reads them.

    Built one total projection M at a time: in the |m1, M-m1> basis the
    coupled L^2 = J1^2 + J2^2 + 2 J1z J2z + J1+ J2- + J1- J2+ is a real
    symmetric tridiagonal block whose eigenvalues l(l+1), l = M .. 2j, ascend
    with l. Condon-Shortley phases make the m1 = +j entry of every |l M>
    positive, but that entry can lie below rounding (about 1e-30 for l = 2j,
    M = 0 at n = 101), so signs are fixed through quantities of order one.
    The highest-weight state |M M> has entries of sign (-1)^(j-m1), so its
    alternating sum is positive. Every other |l M> takes the sign that makes
    its overlap with L- |l M+1> positive, an overlap of magnitude
    sqrt((l+M+1)(l-M)) >= 1. The exact Racah sum (`tests/cg_oracle.py`) is
    the test oracle, not part of the build.
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


def alice_two_axis_state(n: int, e: float) -> WaveFunction:
    """Elliptic signal with Runge-Lenz axis k = x and angular momentum axis ell = y.

    Its two spin coherent states lie on the equator at azimuths pi/2 +- zeta,
    zeta = arcsin(e), so <K> = (n-1) e x and <L> = (n-1) sqrt(1-e^2) y. Both
    have the real, even magnitudes b_m = sqrt(binom(2j, j+m) / 2^(2j)), and
    their product over m1 + m2 = M is (-i)^M b b e^(-i (m1-m2) zeta). Swapping
    m1 and m2 multiplies C by (-1)^(2j-l), so a row with 2j-l even keeps only
    R = sum C b b cos((m1-m2) zeta), a[l, M] = (-i)^M R, and a row with 2j-l
    odd only I = sum C b b sin((m1-m2) zeta), a[l, M] = (-i)^(M+1) I; and
    a[l, -M] = (-1)^(2j-l) conj(a[l, M]). Each row is one real reduction
    against the block of M, with no BLAS call, and the phases only place R or
    I, signed, so every component that vanishes in theory is exactly +0.0.
    """
    if not 0.0 <= e <= 1.0:
        raise ValueError(f"eccentricity must lie in [0, 1], got {e}")
    # the int ratio and the root are each correctly rounded
    b = np.sqrt([math.comb(n - 1, k) / 2 ** (n - 1) for k in range(n)])
    turns = np.arange(1 - n, n) * math.asin(e)  # (m1-m2) zeta at index n-1 + m1-m2
    bb = np.outer(b, b)
    turn = n - 1 + np.arange(n)[:, None] - np.arange(n)
    # [j+m1, j-m2]: the diagonal -M of each holds the m1 + m2 = M weights, m1 ascending
    cos_weights = (bb * np.cos(turns)[turn])[:, ::-1]
    sin_weights = (bb * np.sin(turns)[turn])[:, ::-1]
    values = np.zeros((n, n))  # [l, M]: R or I by the parity of 2j-l
    for big_m, block in enumerate(coupling_tensor(n)):
        k = (n - 1 - big_m) % 2  # row k is l = M + k; rows k, k+2, .. have 2j-l even
        values[big_m + k::2, big_m] = np.add.reduce(
            block[k::2] * cos_weights.diagonal(-big_m), axis=1)
        values[big_m + 1 - k::2, big_m] = np.add.reduce(
            block[1 - k::2] * sin_weights.diagonal(-big_m), axis=1)
    odd = (n - 1 - np.arange(n)) % 2
    quarter_turns = np.array([1.0, -1.0j, -1.0, 1.0j])  # (-i)^q
    table = np.zeros((n, 2 * n - 1), dtype=complex)
    table[:, n - 1:] = values * quarter_turns[(np.arange(n) + odd[:, None]) % 4]
    table[:, : n - 1] = (1 - 2 * odd)[:, None] * table[:, : n - 1 : -1].conj()
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
