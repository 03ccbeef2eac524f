"""Coherent states of the fixed-n shell.

A shell state is stored as n real rows and one quarter turn per row: rows[l]
holds the 2l+1 floats r_{lm}, m = -l .. l, and the amplitude over the |l m>
basis, 0 <= l <= n-1, is a_{lm} = (-i)^(turns[l]+m) r_{lm}. Every state the
commands build has this form (Edmonds, Angular Momentum in Quantum Mechanics,
ch. 3 phases): the Stark state is a signed real column, the circular state one
entry, and the two-axis state's row l carries (-i)^(2j-l+m). The two
commuting spins j = (n-1)/2 that generate the shell give the angular momentum
L = J1 + J2 and the scaled Runge-Lenz vector K = J2 - J1. An elliptic state is
the product of two spin-j coherent states. The commands send only the
two-axis state, whose spins lie on the equator, and its projection onto each l
has a closed form: one recurrence, running powers and exact row weights, in
+, x, / and sqrt alone, on Python floats in a fixed order, so its bits depend
on no vector library. The commands write these states (`state`) or evaluate
them through the closed-form fidelities of `povm_so3`. Complex tables of
general states, the coupling of a two-spin table (eigensolved blocks and the
exact Racah sum), the rotations and the L and K dispersions are test oracles
(`tests/shell_table.py`, `tests/cg_oracle.py`, `tests/rotation_oracle.py`).
"""

from __future__ import annotations

import math
from functools import lru_cache

from .angmom import MAX_N

_NORM_TOL = 1e-8


class WaveFunction:
    """Normalized n-shell state a_{lm} = (-i)^(turns[l]+m) rows[l][l+m], m = -l .. l."""

    def __init__(self, n: int, rows: list, turns: list):
        self.n, self.rows, self.turns = n, rows, turns
        if not 2 <= n <= MAX_N:
            raise ValueError(f"n must lie in [2, MAX_N = {MAX_N}], got {n}")
        lengths = [len(row) for row in rows]
        if lengths != list(range(1, 2 * n, 2)) or len(turns) != n:
            raise ValueError(f"rows and turns do not have the shape of the shell n = {n}")
        if not abs(self.norm() - 1.0) <= _NORM_TOL:  # false for NaN as well
            raise ValueError(f"state norm {self.norm()!r} is not 1")

    def norm(self) -> float:
        return math.hypot(*[math.hypot(*row) for row in self.rows])

    def m0_amplitudes(self) -> list:
        """The complex a_{l0}, one per l."""
        return [(1.0 + 0.0j, -1.0j, -1.0 + 0.0j, 1.0j)[turn % 4] * row[l]
                for l, (row, turn) in enumerate(zip(self.rows, self.turns))]

    def to_json(self) -> str:
        """The JSON text {n, entries: [{l, m, re, im}]}, entries by l then m.

        The bytes of `json.dumps(..., indent=2) + "\\n"`, built in one pass:
        json writes a finite float as its repr, and the norm check refuses NaN
        and inf, so every entry is finite. The turn (-i)^q places r_{lm} as
        +r or -r in the real (q even) or the imaginary part (q odd), and the
        other part is +0.0; r + 0.0 and 0.0 - r turn a zero of either sign
        into +0.0, so a component that vanishes prints as 0.0.
        """
        entries = []
        for l, (row, turn) in enumerate(zip(self.rows, self.turns)):
            head = f'    {{\n      "l": {l},\n      "m": '
            for m, r in zip(range(-l, l + 1), row):
                q = (turn + m) % 4
                value = repr(0.0 - r if q in (1, 2) else r + 0.0)
                re, im = ("0.0", value) if q % 2 else (value, "0.0")
                entries.append(f'{head}{m},\n      "re": {re},\n      "im": {im}\n    }}')
        return f'{{\n  "n": {self.n},\n  "entries": [\n' + ",\n".join(entries) + "\n  ]\n}\n"


# n(n+1)/2 floats per shell; commands walk their shells one at a time
@lru_cache(maxsize=4)
def _row_weights(n: int) -> tuple:
    """W[l][M] = sqrt((2l+1) (2j)!^2 (l+M)! (l-M)! / ((2j-l)! (2j+l+1)! l!^2)),
    2j = n-1 and M = 0 .. l; W is even in M.

    The ratio under each root is one division of Python ints, which rounds
    correctly, so every weight is within an ulp of the exact value. W[l][0] is
    the magnitude of the extreme Stark column, and W[l][|M|] scales the
    two-axis state's row l.
    """
    fact = [math.factorial(k) for k in range(2 * n)]
    top = fact[n - 1] ** 2
    weights = []
    for l in range(n):
        num, den = (2 * l + 1) * top, fact[n - 1 - l] * fact[n + l] * fact[l] ** 2
        weights.append(tuple(math.sqrt(num * fact[l + big_m] * fact[l - big_m] / den)
                             for big_m in range(l + 1)))
    return tuple(weights)


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

    So row l is e^(2j-l) t_l W_l with turn 2j-l. t is one recurrence over l
    whose terms are all >= 0, and e^(2j-l) a running product, so nothing
    cancels; no coupling tensor, eigensolver or reduction enters. t and W are
    even in M, so each row is built on M >= 0 and mirrored, and
    a[l, -M] = (-1)^(2j-l) conj(a[l, M]) exactly.
    """
    if not 0.0 <= e <= 1.0:
        raise ValueError(f"eccentricity must lie in [0, 1], got {e}")
    return WaveFunction(n, _two_axis_rows(n, e), [n - 1 - l for l in range(n)])


def _two_axis_rows(n: int, e, sqrt=math.sqrt) -> list:
    """The rows of `alice_two_axis_state(n, e)`, unchecked.

    Every step is +, x, / or the root c = sqrt(1 - e^2), so the rows are
    analytic in e: with sqrt = cmath.sqrt a complex e goes through the same
    steps, which `povm_so3`'s complex-step derivative in e reads.
    """
    c = sqrt((1.0 - e) * (1.0 + e))
    powers = [1.0]  # e^k, then reversed: e^(2j-l) at l
    for _ in range(n - 1):
        powers.append(powers[-1] * e)
    powers.reverse()
    rows, t = [], [1.0]  # t[M] = t_l(l+M), M = 0 .. l
    for l, (weights, power) in enumerate(zip(_row_weights(n), powers)):
        if l:
            # t_l(l+M) = (t_{l-1}(l-1+M-1) + t_{l-1}(l-1+M+1))/2 + c t_{l-1}(l-1+M),
            # the entry at M = -1 being the one at M = 1
            prev = [t[1] if l > 1 else 0.0, *t, 0.0, 0.0]
            t = [0.5 * (below + above) + c * mid
                 for below, mid, above in zip(prev, prev[1:], prev[2:])]
        half = [tm * w * power for tm, w in zip(t, weights)]
        rows.append(half[:0:-1] + half)
    return rows


def circular_state(n: int) -> WaveFunction:
    """The |l=n-1, m=n-1> state: zero eccentricity, maximal angular momentum."""
    rows = [[0.0] * (2 * l + 1) for l in range(n)]
    rows[n - 1][2 * n - 2] = 1.0
    return WaveFunction(n, rows, [0] * (n - 1) + [(1 - n) % 4])


def extreme_stark(n: int) -> WaveFunction:
    """Eigenstate of K_z with eigenvalue n-1: coefficients C^{jj l}_{-j j 0} at m=0.

    The column has the closed form, with 2j = n-1 (Edmonds, Angular Momentum
    in Quantum Mechanics),
    <j -j; j j | l 0> = (-1)^(n-1-l) sqrt((2l+1) (n-1)!^2 / ((n-1-l)! (n+l)!)),
    whose magnitude is `_row_weights` at M = 0, within an ulp of the exact
    value. It is real: every turn is 0.
    """
    rows = [[0.0] * (2 * l + 1) for l in range(n)]
    for l, half in enumerate(_row_weights(n)):
        rows[l][l] = -half[0] if (n - 1 - l) % 2 else half[0]
    return WaveFunction(n, rows, [0] * n)
