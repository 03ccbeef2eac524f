"""Covariant SO(3) measurement: fiducial vectors, Haar quadrature, fidelities.

The measurement is the rotation-covariant POVM whose elements are rotated
copies of a fiducial vector |B>, weighted by the Haar measure
sin(theta) dpsi dtheta dphi / 8 pi^2. Transmission quality for an axis is the
mean cosine of the angle between the true and estimated axis, obtained by
integrating |<A|U(alpha,beta,gamma)|B>|^2 against the axis weight over the
error rotation.

Quadrature is exact, not approximate: the integrands are trigonometric
polynomials of degree <= 2(n-1) per Euler angle (plus degree 1 from the axis
weight), so 2n Gauss-Legendre nodes in cos(beta) integrate the beta average
exactly at double precision. The alpha and gamma averages are done in closed
form by Fourier orthogonality, which is exactly equivalent to the 4n+4
equispaced nodes in alpha and gamma that QuadratureRule declares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .angmom import small_d_matrices
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

    def beta_nodes(self):
        """(beta, weight) with weights summing to 1 under sin(beta) dbeta / 2."""
        x, w = _leggauss(self.n_beta)
        return np.arccos(x), w / 2.0

    def alpha_nodes(self) -> np.ndarray:
        return np.arange(self.n_alpha) * 2.0 * math.pi / self.n_alpha

    def gamma_nodes(self) -> np.ndarray:
        return np.arange(self.n_gamma) * 2.0 * math.pi / self.n_gamma


@lru_cache(maxsize=None)
def _leggauss(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@lru_cache(maxsize=256)
def _d_stack_for_rule(tl: int, n_beta: int) -> np.ndarray:
    betas = np.arccos(_leggauss(n_beta)[0])
    stack = small_d_matrices(tl / 2.0, betas)
    stack.setflags(write=False)
    return stack


@dataclass
class FiducialVector:
    """Per-l unit-norm blocks of Bob's fiducial vector.

    The sqrt(2l+1) Schur weights that make the POVM complete are applied when
    amplitudes are assembled, not stored here.
    """

    n: int
    blocks: list

    def __post_init__(self):
        self.blocks = [np.asarray(b, dtype=complex) for b in self.blocks]
        for l, b in enumerate(self.blocks):
            if b.shape != (2 * l + 1,):
                raise ValueError(f"block l={l} has shape {b.shape}")
            if abs(np.linalg.norm(b) - 1.0) > 1e-8:
                raise ValueError(f"fiducial block l={l} is not unit norm")


@dataclass(frozen=True)
class FidelityReport:
    """Transmission summary: mean error cosines per axis and the mean square error."""

    protocol: str
    n: int
    eccentricity: float | None
    cos_omega: dict
    infidelity_per_axis: float

    @classmethod
    def single_axis(cls, protocol, n, ecc, axis, cos_omega):
        return cls(protocol, n, ecc, {axis: cos_omega}, 0.5 * (1.0 - cos_omega))

    @classmethod
    def two_axis(cls, protocol, n, ecc, cos_x, cos_y):
        eta = 0.25 * (1.0 - cos_x) + 0.25 * (1.0 - cos_y)
        return cls(protocol, n, ecc, {"x": cos_x, "y": cos_y}, eta)


def bob_fiducial(a: WaveFunction) -> FiducialVector:
    """Optimal fiducial blocks b_l = a_l / ||a_l||.

    An l-block where a vanishes is completed with the m=0 basis vector; the
    completion keeps the POVM resolving the identity and contributes zero
    overlap with |A>, so every fidelity is unchanged.
    """
    blocks = []
    for l in range(a.n):
        norm = np.linalg.norm(a.blocks[l])
        if norm < _ZERO_BLOCK:
            filler = np.zeros(2 * l + 1, dtype=complex)
            filler[l] = 1.0
            blocks.append(filler)
        else:
            blocks.append(a.blocks[l] / norm)
    return FiducialVector(a.n, blocks)


def _t_stack(a: WaveFunction, fid: FiducialVector, rule: QuadratureRule) -> np.ndarray:
    """T[b, mp, m] = sum_l sqrt(2l+1) conj(a_{l,mp}) d^l_{mp,m}(beta_b) b_{l,m}."""
    L = a.n - 1
    dim = 2 * L + 1
    t = np.zeros((rule.n_beta, dim, dim), dtype=complex)
    for l in range(a.n):
        stack = _d_stack_for_rule(2 * l, rule.n_beta)
        weight = math.sqrt(2 * l + 1)
        block = weight * np.conj(a.blocks[l])[:, None] * fid.blocks[l][None, :]
        t[:, L - l : L + l + 1, L - l : L + l + 1] += stack * block[None, :, :]
    return t


def _haar_moments(a: WaveFunction, fid: FiducialVector, rule: QuadratureRule):
    """Haar averages of |<A|U|B>|^2 times {1, cos(beta), (1+cos(beta)) cos(alpha+gamma)}.

    With <A|U(alpha, beta, gamma)|B> = sum T[b, mp, m] e^{-i alpha mp} e^{-i gamma m},
    orthogonality of the Fourier modes gives the alpha and gamma averages in
    closed form: |<A|U|B>|^2 averages to sum |T[b]|^2, and its product with
    cos(alpha + gamma) to Re sum T[b, mp+1, m+1] conj(T[b, mp, m]). Both equal
    the rule's equispaced alpha x gamma sums exactly, because those are exact
    for every frequency present (at most 2n-1 against 4n+4 nodes).
    """
    betas, wbeta = rule.beta_nodes()
    cosbeta = np.cos(betas)
    t = _t_stack(a, fid, rule)
    s0 = (t.real**2 + t.imag**2).sum(axis=(1, 2))
    sxy = (t[:, 1:, 1:] * np.conj(t[:, :-1, :-1])).real.sum(axis=(1, 2))
    total = float(wbeta @ s0)
    mom_z = float(wbeta @ (cosbeta * s0))
    mom_xy = float(wbeta @ ((1.0 + cosbeta) * sxy))
    return total, mom_z, mom_xy


def cos_omega_z(a: WaveFunction, rule: QuadratureRule | None = None) -> float:
    """Mean error cosine <cos omega_z> for transmitting the z axis with state a."""
    rule = rule or QuadratureRule.for_shell(a.n)
    _, mom_z, _ = _haar_moments(a, bob_fiducial(a), rule)
    return mom_z


def cos_omega_xy(a: WaveFunction, rule: QuadratureRule | None = None):
    """Per-axis mean error cosines for transmitting the x and y axes.

    Evaluates <cos omega_x + cos omega_y> = <(1 + cos beta) cos(alpha + gamma)>
    over the error distribution and reports the symmetric per-axis pair.
    """
    rule = rule or QuadratureRule.for_shell(a.n)
    _, _, mom_xy = _haar_moments(a, bob_fiducial(a), rule)
    return mom_xy / 2.0, mom_xy / 2.0


def povm_completeness_deviation(a: WaveFunction, rule: QuadratureRule | None = None) -> float:
    """|integral of |<A|U|B>|^2 dU - 1|; zero when the POVM resolves the identity."""
    rule = rule or QuadratureRule.for_shell(a.n)
    total, _, _ = _haar_moments(a, bob_fiducial(a), rule)
    return abs(total - 1.0)


# ---------------------------------------------------------------------------
# Closed form for m=0 states and the optimal one-axis signal.

def m0_overlap_matrix(n: int) -> np.ndarray:
    """Symmetric tridiagonal matrix with entries A_{l,l-1} = l / sqrt(4 l^2 - 1).

    For any m=0 signal, <cos omega_z> = sum_{lk} A_{lk} |a_{l0}| |a_{k0}|.
    """
    mat = np.zeros((n, n))
    for l in range(1, n):
        mat[l, l - 1] = mat[l - 1, l] = l / math.sqrt(4.0 * l * l - 1.0)
    return mat


def cos_omega_z_m0(a0) -> float:
    """Closed-form <cos omega_z> for a normalized m=0 amplitude column."""
    x = np.abs(np.asarray(a0, dtype=complex))
    if abs(np.linalg.norm(x) - 1.0) > 1e-8:
        raise ValueError("m=0 amplitudes are not normalized")
    sub = np.arange(1, len(x)) / np.sqrt(4.0 * np.arange(1, len(x)) ** 2 - 1.0)
    return float(2.0 * np.sum(sub * x[1:] * x[:-1]))


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


def optimize_eccentricity(n: int, objective: str = "two_axes",
                          rule: QuadratureRule | None = None):
    """Minimize the mean square error over eccentricity.

    objective "two_axes" minimizes the per-axis error for transmitting x and y;
    "single_w_axis" transmits z with the state whose minor axis w is along z
    (both k and ell in the xy plane). Golden-section search on [0.01, 0.99]
    down to 1e-4, then a five-point parabolic refinement.

    Returns (e_opt, eta_min).
    """
    if n < 3:
        raise ValueError("eccentricity optimization needs n >= 3")
    rule = rule or QuadratureRule.for_shell(n)

    if objective == "two_axes":
        def eta(e):
            cx, cy = cos_omega_xy(alice_two_axis_state(n, e), rule)
            return 0.25 * (1.0 - cx) + 0.25 * (1.0 - cy)
    elif objective == "single_w_axis":
        def eta(e):
            return 0.5 * (1.0 - cos_omega_z(alice_two_axis_state(n, e), rule))
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
