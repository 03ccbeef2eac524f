"""Test-side views of a shell state as the complex table a[l, n-1+m], zero
where |m| > l (`padded`), random states, the two-spin, L/K and measurement
observables that only the tests evaluate, and the two-axis state's closed
form to 40 digits (`two_axis_table_40`). The oracles here take and return
such tables, so they hold any state, not only the real rows with quarter
turns that `states.WaveFunction` stores.

The measurement oracles keep what `povm_so3` folds away: Bob's fiducial as a
table of its own (`bob_fiducial`), complex X-sums, the q = -1 Clebsch-Gordan
forms, and the series route that forms the X-sums of |A> and of the fiducial
separately over its own coefficient table (`series_moments`)."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

import numpy as np

from rydberg_frames.povm_so3 import cos_omega_xy, cos_omega_z
from rydberg_frames.states import WaveFunction

from cg_oracle import dense_coupling, ladder_factors


def block(table, l):
    """Row l of a state or fiducial table restricted to m = -l .. l."""
    n = table.shape[0]
    return table[l, n - 1 - l : n + l]


def padded(wf: WaveFunction) -> np.ndarray:
    """The complex table a[l, n-1+m] = (-i)^(turns[l]+m) rows[l][l+m] of a
    state, zero where |m| > l; + 0.0 makes every zero component +0.0."""
    n = wf.n
    table = np.zeros((n, 2 * n - 1), dtype=complex)
    for l, (row, turn) in enumerate(zip(wf.rows, wf.turns)):
        turns = (turn + np.arange(-l, l + 1)) % 4
        block(table, l)[:] = np.array([1.0, -1.0j, -1.0, 1.0j])[turns] * np.asarray(row)
    return table + 0.0


def random_wavefunction(n, rng):
    """Complex Gaussian a_{lm} in every |m| <= l entry, drawn l by l: a
    normalized table."""
    table = np.zeros((n, 2 * n - 1), dtype=complex)
    for l in range(n):
        block(table, l)[:] = rng.normal(size=2 * l + 1) + 1j * rng.normal(size=2 * l + 1)
    return table / np.linalg.norm(table)


def random_rows_state(n, rng, scale=None):
    """Real Gaussian rows with random integer turns, row l rescaled by
    scale[l] (1 when scale is None), normalized."""
    rows = [rng.normal(size=2 * l + 1) * (1.0 if scale is None else scale[l]) for l in range(n)]
    norm = math.sqrt(math.fsum(float(row @ row) for row in rows))
    return WaveFunction(n, [(row / norm).tolist() for row in rows],
                        rng.integers(-8, 9, size=n).tolist())


def random_uneven_state(n, rng):
    """A random_rows_state whose rows are rescaled, each by 1, 0, 5e-13 or
    0.5^l, one row kept at full size: empty, tiny and decaying rows side by side."""
    scale = np.choose(rng.integers(4, size=n),
                      [np.ones(n), np.zeros(n), np.full(n, 5e-13), 0.5 ** np.arange(n)])
    scale[rng.integers(n)] = 1.0
    return random_rows_state(n, rng, scale)


def random_m0_state(n, rng):
    """Real Gaussian a_{l0} column with random integer turns, normalized; zero
    wherever m != 0."""
    amps = rng.normal(size=n)
    amps /= np.linalg.norm(amps)
    rows = [[0.0] * l + [a] + [0.0] * l for l, a in enumerate(amps.tolist())]
    return WaveFunction(n, rows, rng.integers(-8, 9, size=n).tolist())


def spin_matrices(n: int):
    """Jx, Jy, Jz of spin j = (n-1)/2, m ascending: the two spins L and K are built from."""
    jplus = np.diag(ladder_factors(n), -1)
    jz = np.diag(np.arange(n) - (n - 1) / 2.0)
    return (jplus + jplus.T) / 2.0, (jplus - jplus.T) / 2j, jz


_DIGITS = 40


@lru_cache(maxsize=1)  # callers walk the eccentricities of one shell at a time
def _row_weights_40(n: int) -> tuple:
    """W[l][M] = sqrt((2l+1) (2j)!^2 (l+M)! (l-M)! / ((2j-l)! (2j+l+1)! l!^2)),
    2j = n-1 and M = 0 .. l, each root of the exact ratio to 40 digits."""
    fact = [math.factorial(k) for k in range(2 * n)]
    with localcontext() as ctx:
        ctx.prec = _DIGITS
        return tuple(
            tuple((Decimal((2 * l + 1) * fact[n - 1] ** 2 * fact[l + big_m] * fact[l - big_m])
                   / Decimal(fact[n - 1 - l] * fact[n + l] * fact[l] ** 2)).sqrt()
                  for big_m in range(l + 1))
            for l in range(n))


def two_axis_table_40(n: int, e: float) -> np.ndarray:
    """The two-axis state's table by its closed form in 40-digit decimals,
    a[l, M] = (-i)^(2j-l+M) e^(2j-l) t_l(l+M) W[l, M], from the exact e.

    t_l(k) is the coefficient of u^k v^(2l-k) in (u^2/2 + c uv + v^2/2)^l,
    c = sqrt(1 - e^2), by the same recurrence over l as
    `states.alice_two_axis_state` but on its even half M >= 0; each entry is
    rounded to a double once, so the table is good to half an ulp.
    """
    exact = Fraction(e)
    table = np.zeros((n, 2 * n - 1), dtype=complex)
    with localcontext() as ctx:
        ctx.prec = _DIGITS
        e40 = Decimal(exact.numerator) / exact.denominator
        c_squared = 1 - exact * exact
        c = (Decimal(c_squared.numerator) / c_squared.denominator).sqrt()
        powers = [Decimal(1)]  # e^k
        for _ in range(n - 1):
            powers.append(powers[-1] * e40)
        zero, half = Decimal(0), Decimal("0.5")
        t = [Decimal(1)]  # t_l(l+M) for M = 0 .. l
        for l in range(n):
            if l:
                # t_l(l+M) = (t_{l-1}(l-1+M-1) + t_{l-1}(l-1+M+1))/2 + c t_{l-1}(l-1+M),
                # the entry at M = -1 being the one at M = 1
                prev = [t[1] if l > 1 else zero, *t, zero, zero]
                t = [half * (prev[m] + prev[m + 2]) + c * prev[m + 1] for m in range(l + 1)]
            row = [float(powers[n - 1 - l] * tm * w) for tm, w in zip(t, _row_weights_40(n)[l])]
            table[l, n - 1 : n + l] = row
            table[l, n - 1 - l : n] = row[::-1]
    turns = n - 1 - np.arange(n)[:, None] + np.arange(1 - n, n)  # 2j-l+M
    return table * np.array([1.0, -1.0j, -1.0, 1.0j])[turns % 4]


def to_product_amplitudes(table: np.ndarray) -> np.ndarray:
    """Two-spin table psi[j+m1, j+m2] of a shell-state table: SO(4) as SO(3) x SO(3)."""
    # the inverse of `from_product_amplitudes`: a[l, m1 + m2] sits at column i1 + i2
    n = table.shape[0]
    total = np.add.outer(np.arange(n), np.arange(n))
    return (dense_coupling(n) * table[:, total]).sum(axis=0)


def lk_moments(state):
    """<L>, <K>, <L^2>, <K^2>, <L.K + K.L> of a shell-state table (n x 2n-1)
    or a two-spin table (n x n): the orbit's frame."""
    psi = state if state.shape[0] == state.shape[1] else to_product_amplitudes(state)
    lvec = np.zeros(3)
    kvec = np.zeros(3)
    l2 = k2 = lk = 0.0
    for i, spin in enumerate(spin_matrices(psi.shape[0])):
        first, second = spin @ psi, psi @ spin.T
        lpsi, kpsi = first + second, second - first
        lvec[i] = np.vdot(psi, lpsi).real
        kvec[i] = np.vdot(psi, kpsi).real
        l2 += np.vdot(lpsi, lpsi).real
        k2 += np.vdot(kpsi, kpsi).real
        lk += 2.0 * np.vdot(lpsi, kpsi).real
    return lvec, kvec, l2, k2, lk


def dispersion_sum(state) -> float:
    """(Delta L)^2 + (Delta K)^2: the paper's coherent states reach its minimum, 2(n-1)."""
    lvec, kvec, l2, k2, _ = lk_moments(state)
    return l2 + k2 - float(lvec @ lvec) - float(kvec @ kvec)


def m0_overlap_matrix(n: int) -> np.ndarray:
    """Symmetric tridiagonal matrix with entries A_{l,l-1} = l / sqrt(4 l^2 - 1).

    For any m=0 signal, <cos omega_z> = sum_{lk} A_{lk} |a_{l0}| |a_{k0}|;
    A_{l,l-1} is the m=0 coupling of the blocks l-1 and l. It is the Jacobi
    matrix of the Legendre polynomials, and its `eigh` is the oracle of
    `povm_so3.optimal_m0_state`'s closed form.
    """
    l = np.arange(1, n)
    coupling = l / np.sqrt(4.0 * l**2 - 1.0)
    return np.diag(coupling, 1) + np.diag(coupling, -1)


def cos_omega_z_m0(a0) -> float:
    """Closed-form <cos omega_z> of a normalized m=0 column: one-axis fidelity, Stark vs optimal."""
    x = np.abs(np.asarray(a0, dtype=complex))
    if not abs(np.linalg.norm(x) - 1.0) <= 1e-8:  # also refuses NaN
        raise ValueError("m=0 amplitudes are not normalized")
    return float(2.0 * np.sum(np.diagonal(m0_overlap_matrix(len(x)), 1) * x[1:] * x[:-1]))


def bob_fiducial(a: np.ndarray) -> np.ndarray:
    """Optimal fiducial table of a state table: row l is b_l = a_l / ||a_l||,
    a unit vector per l.

    A row where a vanishes exactly is completed with the m=0 basis vector; the
    completion keeps the POVM resolving the identity and contributes zero
    overlap with |A>, so every fidelity is unchanged. A row of any nonzero
    norm, however small, is normalized. The sqrt(2l+1) Schur weights that make
    the POVM complete are applied in the Haar moments, not stored here.
    """
    n = a.shape[0]
    norm = np.linalg.norm(a, axis=1)
    empty = norm == 0.0
    fid = a / np.where(empty, 1.0, norm)[:, None]
    fid[empty, n - 1] = 1.0
    return fid


# (L - l, q): signed square of <l m; 1 q | L m+q> in terms of l and M = m + q,
# Condon-Shortley phases: the standard closed forms for j2 = 1
_CG_RANK_ONE = {
    (1, -1): lambda l, M: (l - M) * (l - M + 1) / ((2 * l + 1) * (2 * l + 2)),
    (0, -1): lambda l, M: (l - M) * (l + M + 1) / (2 * l * (l + 1)),
    (-1, -1): lambda l, M: (l + M + 1) * (l + M) / (2 * l * (2 * l + 1)),
    (1, 0): lambda l, M: (l - M + 1) * (l + M + 1) / ((2 * l + 1) * (l + 1)),
    (0, 0): lambda l, M: M * np.abs(M) / (l * (l + 1)),
    (-1, 0): lambda l, M: -(l - M) * (l + M) / (l * (2 * l + 1)),
    (1, 1): lambda l, M: (l + M) * (l + M + 1) / ((2 * l + 1) * (2 * l + 2)),
    (0, 1): lambda l, M: -(l + M) * (l - M + 1) / (2 * l * (l + 1)),
    (-1, 1): lambda l, M: (l - M) * (l - M + 1) / (2 * l * (2 * l + 1)),
}


@lru_cache(maxsize=4)
def series_table(n: int):
    """Coupling table and weights of the Clebsch-Gordan series for the shell n.

    cg[q + 1, dL + 1, l, m + n - 1] = <l m; 1 q | l+dL m+q> for q = -1, 0, 1
    and 0 <= l < n, zero outside the triangle and projection ranges;
    weights[dL + 1, l] = sqrt((2l+1) / (2L+1)) with L = l + dL, zero where L
    leaves the shell. The oracle's own table: `povm_so3` keeps only q = 0, 1,
    as coefficient lists, and reaches q = -1 by symmetry.
    """
    l = np.arange(n, dtype=float)[:, None]
    m = np.arange(2 * n - 1) - (n - 1.0)
    cg = np.zeros((3, 3, n, 2 * n - 1))
    for (dL, q), signed_square in _CG_RANK_ONE.items():
        big_l = l + dL
        valid = (np.abs(m) <= l) & (np.abs(m + q) <= big_l) & (big_l >= np.abs(l - 1))
        rows, cols = np.nonzero(valid)
        value = signed_square(l[rows, 0], m[cols] + q)
        cg[q + 1, dL + 1, rows, cols] = np.sign(value) * np.sqrt(np.abs(value))
    big_l = np.arange(n) + np.arange(-1, 2)[:, None]
    inside = (big_l >= 0) & (big_l < n)
    weights = inside * np.sqrt((2 * np.arange(n) + 1) / np.where(inside, 2 * big_l + 1, 1))
    cg.setflags(write=False)
    weights.setflags(write=False)
    return cg, weights


def series_moments(a: np.ndarray):
    """<cos omega_z>, same and opposite of a state table by the series route.

    Each is sum_l sum_L sqrt((2l+1)/(2L+1)) X^a_{lL}(q) conj(X^b_{lL}(q')),
    with the complex X-sums of |A> and of `bob_fiducial(a)` formed separately:
    (q, q') = (0, 0), (1, 1) and (1, -1), over `series_table`.
    <cos omega_x> = same - opposite and <cos omega_y> = same + opposite.
    """
    n = a.shape[0]
    cg, weights = series_table(n)
    ua, ub = np.pad(a, 1), np.pad(bob_fiducial(a), 1)  # bordered by zeros

    def x_sums(u, q):
        base = np.conj(u[1 : n + 1, 1 : 2 * n])
        return np.array([(base * u[1 + dL : n + 1 + dL, 1 + q : 2 * n + q]
                          * cg[q + 1, dL + 1]).sum(axis=1) for dL in (-1, 0, 1)])

    return tuple(float(np.sum(weights * x_sums(ua, q) * np.conj(x_sums(ub, qp))).real)
                 for q, qp in ((0, 0), (1, 1), (1, -1)))


def haar_total(a: np.ndarray) -> float:
    """Haar average of |<A|U|B>|^2 over Bob's fiducial: sum_l |a_l|^2 |b_l|^2."""
    return float((np.abs(a) ** 2).sum(axis=1) @ (np.abs(bob_fiducial(a)) ** 2).sum(axis=1))


def haar_moments(a):
    """Haar averages of |<A|U|B>|^2 times 1, cos(beta), R_xx + R_yy and R_xx - R_yy:
    the plain total here, and the weighted three from `povm_so3`'s fidelities
    for a WaveFunction, or by `series_moments` for a table."""
    if isinstance(a, WaveFunction):
        cx, cy = cos_omega_xy(a)
        return haar_total(padded(a)), cos_omega_z(a), cx + cy, cx - cy
    z, same, opposite = series_moments(a)
    return haar_total(a), z, 2.0 * same, -2.0 * opposite


@lru_cache(maxsize=4)
def _cg_plane_40(n: int, q: int) -> tuple:
    """blocks[l] lists (dL, first, cg, w) for each L = l + dL in the shell with
    |l - 1| <= L: cg[i] = <l m; 1 q | L m+q> for m = first + i, over the m with
    |m| <= l and |m + q| <= L, and w = sqrt((2l+1) / (2L+1)), each the root of
    an exact rational (`_CG_RANK_ONE` on Fractions) to 40 digits."""
    def root(square):
        value = (Decimal(abs(square.numerator)) / square.denominator).sqrt()
        return -value if square < 0 else value

    with localcontext() as ctx:
        ctx.prec = _DIGITS
        return tuple(
            tuple((d_l, max(-l, -l - d_l - q),
                   [root(Fraction(_CG_RANK_ONE[d_l, q](Fraction(l), Fraction(m + q))))
                    for m in range(max(-l, -l - d_l - q), min(l, l + d_l - q) + 1)],
                   root(Fraction(2 * l + 1, 2 * (l + d_l) + 1)))
                  for d_l in (-1, 0, 1) if abs(l - 1) <= l + d_l < n)
            for l in range(n))


def eta_slope_40(n: int, e, q: int) -> tuple:
    """(eta, d eta/de) of the two-axis state at e, in 40-digit decimals: the
    per-axis error 1/2 (1 - (cos omega_x + cos omega_y) / 2) for q = 1, and
    1/2 (1 - cos omega_z) for q = 0. e is a Decimal, or a float taken exactly.

    The state is `two_axis_table_40`'s closed form, whose real rows and turns
    leave eta = (1 - sum_{l,L} w_{lL} X_{lL}^2 / (||a_l|| ||a_L||)) / 2 over the
    plane q (see `povm_so3.cos_omega_xy`). The derivative is carried through
    every step in forward mode, from dc/de = -e/c and d e^k/de = k e^(k-1):
    no difference quotient, so both are good to the working precision.
    """
    with localcontext() as ctx:
        ctx.prec = _DIGITS
        if not isinstance(e, Decimal):
            exact = Fraction(e)
            e = Decimal(exact.numerator) / exact.denominator
        c = (1 - e * e).sqrt()
        dc = -e / c
        zero, half = Decimal(0), Decimal("0.5")
        rows, slopes = [], []
        t, dt = [Decimal(1)], [zero]  # t_l(l+M) and dt_l(l+M)/dc, M = 0 .. l
        for l, weights in enumerate(_row_weights_40(n)):
            if l:
                prev, dprev = ([t[1] if l > 1 else zero, *t, zero, zero],
                               [dt[1] if l > 1 else zero, *dt, zero, zero])
                t, dt = ([half * (prev[m] + prev[m + 2]) + c * prev[m + 1] for m in range(l + 1)],
                         [half * (dprev[m] + dprev[m + 2]) + prev[m + 1] + c * dprev[m + 1]
                          for m in range(l + 1)])
            k = n - 1 - l
            power, dpower = e**k, k * e ** (k - 1) if k else zero
            row = [power * tm * w for tm, w in zip(t, weights)]
            slope = [(dpower * tm + power * dtm * dc) * w for tm, dtm, w in zip(t, dt, weights)]
            rows.append(row[:0:-1] + row)
            slopes.append(slope[:0:-1] + slope)
        norms = [sum(r * r for r in row) for row in rows]
        dnorms = [2 * sum(r * dr for r, dr in zip(row, slope)) for row, slope in zip(rows, slopes)]
        total, dtotal = zero, zero
        for l, blocks in enumerate(_cg_plane_40(n, q)):
            for d_l, first, cg, w in blocks:
                big_l = l + d_l
                u, du = rows[l][l + first :], slopes[l][l + first :]
                v, dv = rows[big_l][big_l + first + q :], slopes[big_l][big_l + first + q :]
                x = sum(a * b * g for a, b, g in zip(u, v, cg))
                dx = sum((da * b + a * db) * g for a, b, da, db, g in zip(u, v, du, dv, cg))
                p2 = norms[l] * norms[big_l]
                if p2:
                    p = p2.sqrt()
                    total += w * x * x / p
                    dtotal += w * (2 * x * dx - x * x * half
                                   * (dnorms[l] / norms[l] + dnorms[big_l] / norms[big_l])) / p
        return half * (1 - total), -half * dtotal


@lru_cache(maxsize=None)
def optimum_40(n: int, q: int) -> Decimal:
    """The root of d eta/de on [0.6, 0.72] (`eta_slope_40`), to 1e-30, by the
    Illinois variant of regula falsi: a bracketed secant whose stalled end
    has its value halved."""
    def slope(e):
        return eta_slope_40(n, e, q)[1]

    with localcontext() as ctx:
        ctx.prec = _DIGITS
        a, b = Decimal("0.6"), Decimal("0.72")
        fa, fb = slope(a), slope(b)
        assert fa * fb < 0, (n, q)
        side, root = 0, a
        while True:
            new = (a * fb - b * fa) / (fb - fa)
            if abs(new - root) < Decimal("1e-30"):
                return new
            root, value = new, slope(new)
            if value * fb > 0:
                b, fb = root, value
                if side == -1:
                    fa /= 2
                side = -1
            elif value * fa > 0:
                a, fa = root, value
                if side == 1:
                    fb /= 2
                side = 1
            else:
                return root


def povm_completeness_deviation(a: np.ndarray) -> float:
    """|integral |<A|U|B>|^2 dU - 1| of a state table: zero when the optimal
    method's POVM resolves the identity."""
    return abs(haar_total(a) - 1.0)
