"""Covariant SO(3) measurement: closed-form Haar moments, fidelities, optima.

The measurement is the rotation-covariant POVM whose elements are rotated
copies of a fiducial vector |B>, weighted by the Haar measure
sin(theta) dpsi dtheta dphi / 8 pi^2. Transmission quality for an axis is the
mean cosine of the angle between the true and estimated axis, obtained by
integrating |<A|U(alpha,beta,gamma)|B>|^2 against the axis weight over the
error rotation. The optimal fiducial's l-block is sqrt(2l+1) b_l with
b_l = a_l / ||a_l||, the unit rows of the state.

Every such integral is evaluated in closed form, without quadrature. The
axis weights are entries of the rotation matrix, i.e. D^1 functions, so the
Clebsch-Gordan series couples each l-block of |A> and |B> only to the blocks
L = l-1, l, l+1, and Schur orthogonality (Edmonds, eqs. 4.3.2 and 4.6.2)
leaves a sum over l and L of w_{lL} X^a_{lL}(q) conj(X^b_{lL}(q')), with
w_{lL} = sqrt((2l+1)/(2L+1)) and m-sums X weighted by the j2 = 1
Clebsch-Gordan coefficients, which have closed algebraic forms. Since b_l
is the unit row a_l / ||a_l||, X^b_{lL} = X^a_{lL} / (||a_l|| ||a_L||): the
fiducial enters only as inverse row-norm weights. Each fidelity then makes
one pass over the state's rows and the one plane of the series it reads
(`_cg_plane`: coefficients and weights of q = 0 for cos(beta), of q = 1 for
the in-plane axes, whose q' = -1 moment follows from the q = 1 sums by the
symmetry of the coefficients), adding each X-sum's term as soon as the sum
is formed. A state's amplitudes are real rows up to a quarter turn
(`states.WaveFunction`), and the turns leave each X a fixed phase times a
real sum, so every fidelity is real arithmetic on Python floats: ordered
loops and `math.fsum`, not the builtin `sum`, whose float sums CPython
compensates from 3.12 on, so the results are the same bits on every
CPython. One evaluation costs O(n^2). The result equals the exact
product grid that QuadratureRule declares (2n Gauss-Legendre nodes in
cos(beta), 4n+4 equispaced nodes in alpha and gamma; exact for these
trigonometric polynomials), which the tests integrate on as an oracle.
QuadratureRule keeps only those node counts, although no code here evaluates
a grid: the benchmark's tracer reads `QuadratureRule.for_shell`, and the result
files name the closed form as their method.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .states import WaveFunction, alice_two_axis_state
from .geometry import two_axis_eta


class QuadratureRule:
    """Node counts: Gauss-Legendre in cos(beta), equispaced in alpha and gamma."""

    def __init__(self, n_beta: int, n_alpha: int, n_gamma: int):
        self.n_beta, self.n_alpha, self.n_gamma = n_beta, n_alpha, n_gamma

    @classmethod
    def for_shell(cls, n: int) -> "QuadratureRule":
        return cls(2 * n, 4 * n + 4, 4 * n + 4)


# (L - l, q): signed square of <l m; 1 q | L m+q> in terms of l and M = m + q,
# Condon-Shortley phases (the standard closed forms for j2 = 1); q = -1 is
# reached through q = 1 (see cos_omega_xy)
_CG_RANK_ONE = {
    (1, 1): lambda l, M: (l + M) * (l + M + 1) / ((2 * l + 1) * (2 * l + 2)),
    (1, 0): lambda l, M: (l - M + 1) * (l + M + 1) / ((2 * l + 1) * (l + 1)),
    (0, 1): lambda l, M: -(l + M) * (l - M + 1) / (2 * l * (l + 1)),
    (0, 0): lambda l, M: M * abs(M) / (l * (l + 1)),
    (-1, 1): lambda l, M: (l - M) * (l - M + 1) / (2 * l * (2 * l + 1)),
    (-1, 0): lambda l, M: -(l - M) * (l + M) / (l * (2 * l + 1)),
}


def _series_block(l: int, big_l: int, q: int):
    """(first, cg): cg[i] = <l m; 1 q | L m+q> for m = first + i, over the m
    with |m| <= l and |m + q| <= L."""
    first, form = max(-l, -big_l - q), _CG_RANK_ONE[big_l - l, q]
    squares = [form(l, m + q) for m in range(first, min(l, big_l - q) + 1)]
    return first, tuple([math.copysign(math.sqrt(abs(v)), v) for v in squares])


@lru_cache(maxsize=4)  # commands walk their shells one at a time
def _cg_plane(n: int, q: int):
    """The q plane of the Clebsch-Gordan series of the shell n.

    blocks[l] lists (dL, first, cg, w) for each L = l + dL in the shell with
    |l - 1| <= L: (first, cg) of `_series_block` and the series weight
    w = sqrt((2l+1) / (2L+1)).
    """
    return tuple(tuple((d_l, *_series_block(l, l + d_l, q),
                        math.sqrt((2 * l + 1) / (2 * (l + d_l) + 1)))
                       for d_l in (-1, 0, 1) if abs(l - 1) <= l + d_l < n) for l in range(n))


def _fidelity_parts(a: WaveFunction, q: int):
    """One pass of the state's rows over the plane q: (parts, cross).

    Each X_{lL} = sum_m r_{l,m} r_{L,m+q} <l m; 1 q | L m+q> is an ordered loop,
    and with p = ||a_l|| ||a_L|| the pass adds w X^2 / p into parts[dL + 1] and
    X_{l-1,l} X_{l,l-1} / p into cross at dL = -1, in ascending l; the three
    parts are to be added by the correctly rounded `fsum`. The pairs that hold
    an empty row (p = 0, X = 0) add nothing.
    """
    norms = []
    for row in a.rows:
        total = 0.0
        for r in row:
            total += r * r
        norms.append(math.sqrt(total))
    rows, parts, cross, up = a.rows, [0.0, 0.0, 0.0], 0.0, 0.0
    for l, blocks in enumerate(_cg_plane(a.n, q)):
        for d_l, first, cg, w in blocks:
            x = 0.0
            for u, v, c in zip(rows[l][l + first :], rows[l + d_l][l + d_l + first + q :], cg):
                x += u * v * c
            p = norms[l] * norms[l + d_l]
            if p:
                parts[d_l + 1] += w * (x * x) / p
                if d_l < 0:
                    cross += up * x / p
            up = x  # the last block of a row, dL = +1, is read by the next row's first
    return parts, cross


def cos_omega_z(a: WaveFunction) -> float:
    """Mean error cosine <cos omega_z> for transmitting the z axis with state a.

    The Haar average of |<A|U|B>|^2 cos(beta), cos(beta) = D^1_00, from the
    q = 0 X-sums of the rows.
    """
    return math.fsum(_fidelity_parts(a, 0)[0])


def cos_omega_xy(a: WaveFunction):
    """Per-axis mean error cosines (<cos omega_x>, <cos omega_y>).

    They are the Haar averages of the rotation-matrix diagonal R_xx and R_yy
    over the error distribution: same - opposite and same + opposite, with
    `same` and `opposite` the averages of |<A|U|B>|^2 Re D^1_11 and
    Re D^1_{1,-1}, since R_xx + R_yy = (1 + cos beta) cos(alpha + gamma) =
    2 Re D^1_11 and R_xx - R_yy = -(1 - cos beta) cos(alpha - gamma) =
    -2 Re D^1_{1,-1}. Both come from the q = 1 X-sums: by
    <l m; 1 -1 | L m-1> = (-1)^(L-l+1) sqrt((2L+1)/(2l+1)) <L m-1; 1 1 | l m>
    (Edmonds, section 3.5), X_{lL}(-1) = (-1)^(L-l+1) conj(X_{Ll}(1)) / w_{lL},
    so the series weights cancel from `opposite`. The complex X-sum is
    (-i)^(turns[L]-turns[l]+q) times the real one of the rows, so the turns
    cancel from |X|^2 and leave fixed signs in `opposite`:
    sum_l X_ll^2 / p_ll - 2 sum_l X_{l,l+1} X_{l+1,l} / p_{l,l+1}, whose first
    sum is the dL = 0 part of `same` (w_ll = 1).
    """
    parts, cross = _fidelity_parts(a, 1)
    same, opposite = math.fsum(parts), parts[1] - 2.0 * cross
    return same - opposite, same + opposite


# ---------------------------------------------------------------------------
# The optimal one-axis signal among m=0 states.

def optimal_m0_state(n: int) -> list:
    """Best one-axis signal among m=0 states: |a_l0| = sqrt(2l+1) P_l(x), normalized.

    <cos omega_z> of an m=0 signal is a^T J a with J_{l,l-1} = l / sqrt(4 l^2 - 1),
    the Jacobi matrix of the Legendre polynomials. Its top eigenvalue, the
    optimum, is the largest zero x of P_n, with the eigenvector above (Golub &
    Welsch, Math. Comp. 23, 221 (1969)); x lies above every zero of each P_l,
    l < n, so every entry is positive.
    """
    def legendre(x):
        p = [1.0, x]
        for l in range(1, n):
            p.append(((2 * l + 1) * x * p[l] - l * p[l - 1]) / (l + 1))
        return p

    x, step = math.cos(3.0 * math.pi / (4 * n + 2)), 1.0
    while abs(step) >= 1e-12:  # Newton's method: at most four steps up to n = 101
        p = legendre(x)
        step = p[n] * (x * x - 1.0) / (n * (x * p[n] - p[n - 1]))
        x -= step
    vec = [math.sqrt(2.0 * l + 1.0) * p for l, p in enumerate(legendre(x)[:n])]
    norm = math.sqrt(math.fsum([v * v for v in vec]))
    return [v / norm for v in vec]


# ---------------------------------------------------------------------------
# Eccentricity optimization over the two-axis states.

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_section_min(f, lo: float, hi: float, tol: float):
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol:
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = f(x2)
    return (x1, f1) if f1 < f2 else (x2, f2)


def optimize_eccentricity(n: int, objective: str = "two_axes"):
    """Minimize the mean square error over eccentricity.

    objective "two_axes" minimizes the per-axis error for transmitting x and y;
    "single_w_axis" transmits z with the state whose minor axis w is along z
    (both k and ell in the xy plane). Golden-section search on [0.01, 0.99]
    down to 1e-4, then the vertex of a three-point parabola: 25 evaluations.

    Returns (e_opt, eta_min).
    """
    if n < 3:
        raise ValueError("eccentricity optimization needs n >= 3")

    if objective == "two_axes":
        def eta(e):
            return two_axis_eta(*cos_omega_xy(alice_two_axis_state(n, e)))
    elif objective == "single_w_axis":
        def eta(e):
            return 0.5 * (1.0 - cos_omega_z(alice_two_axis_state(n, e)))
    else:
        raise ValueError(f"unknown objective {objective!r}")

    step = 1e-4
    e_best, eta_best = _golden_section_min(eta, 0.01, 0.99, step)

    # vertex of the parabola through the golden minimum and its two neighbours
    below, above = eta(e_best - step), eta(e_best + step)
    curvature = below - 2.0 * eta_best + above
    if curvature > 0.0:
        vertex = min(max(e_best + 0.5 * step * (below - above) / curvature, 0.01), 0.99)
        eta_vertex = eta(vertex)
        if eta_vertex < eta_best:
            e_best, eta_best = vertex, eta_vertex
    return e_best, eta_best
