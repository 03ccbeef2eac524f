"""Covariant SO(3) measurement: fiducial vectors, closed-form Haar moments, fidelities.

The measurement is the rotation-covariant POVM whose elements are rotated
copies of a fiducial vector |B>, weighted by the Haar measure
sin(theta) dpsi dtheta dphi / 8 pi^2. Transmission quality for an axis is the
mean cosine of the angle between the true and estimated axis, obtained by
integrating |<A|U(alpha,beta,gamma)|B>|^2 against the axis weight over the
error rotation.

Every such integral is evaluated in closed form, without quadrature. The
axis weights are entries of the rotation matrix, i.e. D^1 functions, so the
Clebsch-Gordan series couples each l-block of |A> and |B> only to the blocks
L = l-1, l, l+1, and Schur orthogonality leaves a sum over l and L of
products of m-sums weighted by the j2 = 1 Clebsch-Gordan coefficients, which
have closed algebraic forms. One evaluation costs O(n^2). The result equals
the exact product grid that QuadratureRule declares (2n Gauss-Legendre nodes
in cos(beta), 4n+4 equispaced nodes in alpha and gamma; exact for these
trigonometric polynomials), which the tests integrate on as an oracle.
QuadratureRule keeps only those node counts, although no code here evaluates
a grid: the result files cite them in their metadata, and the benchmark's
tracer reads `QuadratureRule.for_shell`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .states import EllipticSpec, WaveFunction, build_elliptic
from .geometry import UnitVector

_ZERO_BLOCK = 1e-12


@dataclass(frozen=True)
class QuadratureRule:
    """Node counts: Gauss-Legendre in cos(beta), equispaced in alpha and gamma."""

    n_beta: int
    n_alpha: int
    n_gamma: int

    @classmethod
    def for_shell(cls, n: int) -> "QuadratureRule":
        return cls(2 * n, 4 * n + 4, 4 * n + 4)


def two_axis_eta(cos_x: float, cos_y: float) -> float:
    """Mean square error per axis, 1/4 (1 - cos omega_x) + 1/4 (1 - cos omega_y)."""
    return 0.25 * (1.0 - cos_x) + 0.25 * (1.0 - cos_y)


def bob_fiducial(a: WaveFunction) -> list:
    """Optimal fiducial blocks b_l = a_l / ||a_l||, one unit vector per l.

    An l-block where a vanishes is completed with the m=0 basis vector; the
    completion keeps the POVM resolving the identity and contributes zero
    overlap with |A>, so every fidelity is unchanged. The sqrt(2l+1) Schur
    weights that make the POVM complete are applied in the Haar moments, not
    stored here.
    """
    blocks = []
    for l, block in enumerate(a.blocks):
        # np.linalg.norm's own arithmetic, so every fidelity keeps its bits,
        # without its per-call overhead (2n calls per optimizer step)
        norm = np.sqrt(block.real @ block.real + block.imag @ block.imag)
        if norm < _ZERO_BLOCK:
            filler = np.zeros(2 * l + 1, dtype=complex)
            filler[l] = 1.0
            blocks.append(filler)
        else:
            blocks.append(block / norm)
    return blocks


# (L - l, q): signed square of <l m; 1 q | L m+q> in terms of l and M = m + q,
# Condon-Shortley phases (the standard closed forms for j2 = 1)
_CG_RANK_ONE = {
    (1, 1): lambda l, M: (l + M) * (l + M + 1) / ((2 * l + 1) * (2 * l + 2)),
    (1, 0): lambda l, M: (l - M + 1) * (l + M + 1) / ((2 * l + 1) * (l + 1)),
    (1, -1): lambda l, M: (l - M) * (l - M + 1) / ((2 * l + 1) * (2 * l + 2)),
    (0, 1): lambda l, M: -(l + M) * (l - M + 1) / (2 * l * (l + 1)),
    (0, 0): lambda l, M: M * np.abs(M) / (l * (l + 1)),
    (0, -1): lambda l, M: (l - M) * (l + M + 1) / (2 * l * (l + 1)),
    (-1, 1): lambda l, M: (l - M) * (l - M + 1) / (2 * l * (2 * l + 1)),
    (-1, 0): lambda l, M: -(l - M) * (l + M) / (l * (2 * l + 1)),
    (-1, -1): lambda l, M: (l + M + 1) * (l + M) / (2 * l * (2 * l + 1)),
}


@lru_cache(maxsize=None)
def _cg_series(n: int):
    """Coupling table and weights of the Clebsch-Gordan series for the shell n.

    cg[dL + 1, q + 1, l, m + n - 1] = <l m; 1 q | l+dL m+q> for 0 <= l < n,
    zero outside the triangle and projection ranges; weights[dL + 1, l] =
    sqrt((2l+1) / (2L+1)) with L = l + dL, zero where L leaves the shell.
    """
    l = np.arange(n, dtype=float)[:, None]
    m = np.arange(2 * n - 1) - (n - 1.0)
    cg = np.zeros((3, 3, n, 2 * n - 1))
    for (dL, q), signed_square in _CG_RANK_ONE.items():
        big_l = l + dL
        valid = (np.abs(m) <= l) & (np.abs(m + q) <= big_l) & (big_l >= np.abs(l - 1))
        rows, cols = np.nonzero(valid)
        value = signed_square(l[rows, 0], m[cols] + q)
        cg[dL + 1, q + 1, rows, cols] = np.sign(value) * np.sqrt(np.abs(value))
    big_l = np.arange(n) + np.arange(-1, 2)[:, None]
    inside = (big_l >= 0) & (big_l < n)
    weights = inside * np.sqrt((2 * np.arange(n) + 1) / np.where(inside, 2 * big_l + 1, 1))
    cg.setflags(write=False)
    weights.setflags(write=False)
    return cg, weights


def _padded(blocks) -> np.ndarray:
    """u[l + 1, m + n] = blocks[l][l + m], with a zero border on every side."""
    n = len(blocks)
    u = np.zeros((n + 2, 2 * n + 1), dtype=complex)
    for l, block in enumerate(blocks):
        u[l + 1, n - l : n + l + 1] = block
    return u


def _x_sums(u: np.ndarray, cg: np.ndarray) -> np.ndarray:
    """X[dL + 1, q + 1, l] = sum_m conj(u_{l,m}) u_{l+dL, m+q} <l m; 1 q | l+dL m+q>."""
    n = u.shape[0] - 2
    base = np.conj(u[1 : n + 1, 1 : 2 * n])
    x = np.empty((3, 3, n), dtype=complex)
    for dL in (-1, 0, 1):
        for q in (-1, 0, 1):
            shifted = u[1 + dL : n + 1 + dL, 1 + q : 2 * n + q]
            x[dL + 1, q + 1] = (base * shifted * cg[dL + 1, q + 1]).sum(axis=1)
    return x


def _haar_moments(a: WaveFunction, fid: list):
    """Haar averages of |<A|U|B>|^2 times 1, cos(beta), R_xx + R_yy and R_xx - R_yy.

    fid holds the unit blocks b_l of |B> = sum_l sqrt(2l+1) b_l. The
    Clebsch-Gordan series D^l D^1 = sum_L <..|L..><..|L..> D^L and Schur
    orthogonality (Edmonds, eqs. 4.3.2 and 4.6.2) give, for f = D^1_{q q'},

        <|<A|U|B>|^2 f> = sum_l sum_{L = l-1, l, l+1} sqrt((2l+1)/(2L+1))
                          X^a_{lL}(q) conj(X^b_{lL}(q')),

    exactly and without quadrature. The axis weights are cos(beta) = D^1_00,
    R_xx + R_yy = (1 + cos beta) cos(alpha + gamma) = 2 Re D^1_11 and
    R_xx - R_yy = -(1 - cos beta) cos(alpha - gamma) = -2 Re D^1_{1,-1};
    the plain average is sum_l |a_l|^2 |b_l|^2.
    """
    cg, weights = _cg_series(a.n)
    ua, ub = _padded(a.blocks), _padded(fid)
    xa, xb = _x_sums(ua, cg), _x_sums(ub, cg)

    def moment(q, qp):
        return np.sum(weights * xa[:, q + 1] * np.conj(xb[:, qp + 1])).real

    total = float((np.abs(ua) ** 2).sum(axis=1) @ (np.abs(ub) ** 2).sum(axis=1))
    return total, float(moment(0, 0)), float(2.0 * moment(1, 1)), float(-2.0 * moment(1, -1))


def cos_omega_z(a: WaveFunction) -> float:
    """Mean error cosine <cos omega_z> for transmitting the z axis with state a."""
    _, mom_z, _, _ = _haar_moments(a, bob_fiducial(a))
    return mom_z


def cos_omega_xy(a: WaveFunction):
    """Per-axis mean error cosines (<cos omega_x>, <cos omega_y>).

    They are the Haar averages of the rotation-matrix diagonal R_xx and R_yy
    over the error distribution, formed from the moments of their sum and
    their difference.
    """
    _, _, sum_xy, diff_xy = _haar_moments(a, bob_fiducial(a))
    return 0.5 * (sum_xy + diff_xy), 0.5 * (sum_xy - diff_xy)


def povm_completeness_deviation(a: WaveFunction) -> float:
    """|integral of |<A|U|B>|^2 dU - 1|; zero when the POVM resolves the identity."""
    total, _, _, _ = _haar_moments(a, bob_fiducial(a))
    return abs(total - 1.0)


# ---------------------------------------------------------------------------
# Closed form for m=0 states and the optimal one-axis signal.

def _m0_coupling(n: int) -> np.ndarray:
    """l / sqrt(4 l^2 - 1) for l = 1 .. n-1: the m=0 coupling of blocks l-1 and l."""
    l = np.arange(1, n)
    return l / np.sqrt(4.0 * l**2 - 1.0)


def m0_overlap_matrix(n: int) -> np.ndarray:
    """Symmetric tridiagonal matrix with entries A_{l,l-1} = l / sqrt(4 l^2 - 1).

    For any m=0 signal, <cos omega_z> = sum_{lk} A_{lk} |a_{l0}| |a_{k0}|.
    """
    coupling = _m0_coupling(n)
    return np.diag(coupling, 1) + np.diag(coupling, -1)


def cos_omega_z_m0(a0) -> float:
    """Closed-form <cos omega_z> for a normalized m=0 amplitude column."""
    x = np.abs(np.asarray(a0, dtype=complex))
    if abs(np.linalg.norm(x) - 1.0) > 1e-8:
        raise ValueError("m=0 amplitudes are not normalized")
    return float(2.0 * np.sum(_m0_coupling(len(x)) * x[1:] * x[:-1]))


def optimal_m0_state(n: int) -> np.ndarray:
    """Nonnegative principal eigenvector of the m=0 overlap matrix.

    This is the best one-axis signal among m=0 states; its eigenvalue equals
    the optimal <cos omega_z>.
    """
    eigvals, eigvecs = np.linalg.eigh(m0_overlap_matrix(n))
    vec = eigvecs[:, -1]
    vec = vec * np.sign(vec[np.argmax(np.abs(vec))])
    if vec.min() < -1e-10:
        raise RuntimeError("principal eigenvector is not sign-definite")
    return np.clip(vec, 0.0, None)


# ---------------------------------------------------------------------------
# Two-axis signal states and eccentricity optimization.

def alice_two_axis_state(n: int, e: float) -> WaveFunction:
    """Elliptic signal with Runge-Lenz axis k = x and angular momentum axis ell = y.

    The two coherent directions lie in the xy plane at azimuths pi/2 + zeta and
    pi/2 - zeta with zeta = arcsin(e), symmetric about y, so that
    <K> = (n-1) e x and <L> = (n-1) sqrt(1-e^2) y.
    """
    if not 0.0 <= e <= 1.0:
        raise ValueError(f"eccentricity must lie in [0, 1], got {e}")
    zeta = math.asin(e)
    u1 = UnitVector.from_spherical(math.pi / 2.0, math.pi / 2.0 + zeta)
    u2 = UnitVector.from_spherical(math.pi / 2.0, math.pi / 2.0 - zeta)
    return build_elliptic(EllipticSpec(n, u1, u2))


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
    down to 1e-4, then a five-point parabolic refinement.

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

    # parabolic vertex through five points around the golden minimum
    offsets = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * step
    xs = np.clip(e_best + offsets, 0.01, 0.99)
    ys = np.array([eta_best if dx == 0.0 else eta(x) for x, dx in zip(xs, offsets)])
    coeffs = np.polyfit(xs - e_best, ys, 2)
    if coeffs[0] > 0.0:
        vertex = float(np.clip(e_best - coeffs[1] / (2.0 * coeffs[0]), 0.01, 0.99))
        eta_vertex = eta(vertex)
        if eta_vertex < eta_best:
            e_best, eta_best = vertex, eta_vertex
    return float(e_best), float(eta_best)
