"""Angular momentum special functions.

Clebsch-Gordan coefficients (Condon-Shortley phases) via the Racah finite sum
in exact rational arithmetic, stacks of Wigner small-d matrices
d(beta) = exp(-i J_y beta) of the active z-y-z convention
U(psi, theta, phi) = exp(-i J_z psi) exp(-i J_y theta) exp(-i J_z phi),
and spin coherent state coefficients.

Half-odd spins are handled by storing twice the quantum number as an integer,
so no floating point equality on values like 9/2 is ever relied on. The
Clebsch-Gordan coefficient is an exact oracle up to MAX_J: its square is
formed as one exact rational before the square root is taken. Whole tables of
coefficients are not built here but by an eigensolve of the coupled L^2
(`states.coupling_tensor`). d-matrices come from one kernel, the
eigendecomposition of J_y (`small_d_matrices`). The coherent-state coefficients
use a log-factorial table built once at import time. All functions here are
pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

MAX_J = 50
# Largest supported shell: the two spins of the shell n are j = (n-1)/2 <= MAX_J.
MAX_N = 2 * MAX_J + 1

# log(k!) for k = 0 .. 2*MAX_J, for the coherent-state binomials
_LOG_FACT = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, 2 * MAX_J + 1)))))


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


def coherent_coeffs(j, theta: float, phi: float) -> np.ndarray:
    """Coefficients of the spin-j coherent state along (theta, phi).

    Returns the complex vector D^j_m(theta, phi) indexed by m = -j .. j
    ascending, i.e. the expansion of exp(-i J_z phi) exp(-i J_y theta) |j j>
    in the |j m> basis:

        D^j_m = binom(2j, j+m)^(1/2) cos(theta/2)^(j+m) sin(theta/2)^(j-m) e^(-i m phi)
    """
    tj = _twice(j)
    if not 0 <= tj <= 2 * MAX_J:
        raise ValueError(f"spin {tj / 2} outside [0, MAX_J = {MAX_J}]")
    idx = np.arange(tj + 1)  # j + m
    log_binom = 0.5 * (_LOG_FACT[tj] - _LOG_FACT[idx] - _LOG_FACT[tj - idx])
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    mag = np.exp(log_binom) * np.power(c, idx) * np.power(s, tj - idx)
    m_values = idx - tj / 2.0
    return mag * np.exp(-1j * m_values * phi)


@lru_cache(maxsize=None)
def _jy_eig(tl: int):
    dim = tl + 1
    m = np.arange(dim) - tl / 2.0
    raising = np.sqrt((tl / 2.0 - m[:-1]) * (tl / 2.0 + m[:-1] + 1.0))
    jplus = np.diag(raising, -1).astype(complex)
    jy = (jplus - jplus.conj().T) / 2j
    eigvals, eigvecs = np.linalg.eigh(jy)
    eigvals.setflags(write=False)
    eigvecs.setflags(write=False)
    return eigvals, eigvecs


def small_d_matrices(l, betas) -> np.ndarray:
    """Stack of full d^l(beta) matrices, shape (len(betas), 2l+1, 2l+1).

    Computed as exp(-i beta J_y) = V exp(-i beta Lambda) V^H through the
    eigendecomposition of J_y, one batched matrix product for all betas; it
    stays accurate at every l and is much faster than the term-by-term sum
    when whole matrices are needed on quadrature grids. Rows index mp,
    columns m, both ascending from -l. The result is a C-contiguous float64
    array that owns its data (the imaginary part vanishes), so caching it
    does not keep the complex product alive.
    """
    eigvals, eigvecs = _jy_eig(_twice(l))
    phases = np.exp(-1j * np.outer(np.asarray(betas, dtype=float), eigvals))
    stack = (eigvecs * phases[:, None, :]) @ eigvecs.conj().T
    return np.ascontiguousarray(stack.real)
