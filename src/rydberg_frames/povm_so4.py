"""Product SO(4) measurement: closed forms, outcome sampling, diagnostics.

The measurement factorizes into one covariant SO(3) POVM per spin-j factor
(j = (n-1)/2), so each transmitted direction is estimated independently with
solid-angle error density (2j+1)/(4 pi) cos^{2(n-1)}(chi/2) about the true
direction. That density integrates to one and has <cos chi> = (n-1)/(n+1),
hence a per-direction mean square error of exactly 1/(n+1) for every n.

All sampling is rejection-free through the inverse CDF on s = sin^2(chi/2)
and uses numpy's counter-based 64-bit Philox generator with an explicit seed
in every API.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .angmom import coherent_coeffs, small_d_matrices
from .geometry import UnitVector, X_AXIS, Y_AXIS, perpendicular_unit
from .states import extreme_stark

# Outcome dump: rows are rendered this many at a time, so the Python floats
# of one block (not of the whole batch) are alive at once.
_DUMP_BLOCK_ROWS = 65536
_DUMP_HEADER = b"sample,chi1,chi2,cos_chi1,cos_chi2\r\n"
_DUMP_ROW = b"%d,%.12g,%.12g,%.12g,%.12g\r\n"


def philox_rng(seed: int) -> np.random.Generator:
    """Counter-based 64-bit generator; disjoint per-worker streams come from
    seeding with distinct keys."""
    return np.random.Generator(np.random.Philox(seed))


def so4_cos_omega(n: int) -> float:
    """Closed-form per-axis <cos omega> of the product measurement."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    return (n - 1.0) / (n + 1.0)


def so4_infidelity(n: int) -> float:
    """Per-axis mean square error 1/(n+1)."""
    return 1.0 / (n + 1.0)


def sample_error_cosines(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """cos(chi) draws from the density ~ cos^{2(n-1)}(chi/2) on the sphere.

    Inverse CDF on s = sin^2(chi/2): the density is n (1-s)^(n-1) ds, so
    s = 1 - (1-U)^(1/n) with U uniform.
    """
    s = 1.0 - (1.0 - rng.random(count)) ** (1.0 / n)
    return 1.0 - 2.0 * s


def sample_directions_about(n: int, center: UnitVector, count: int,
                            rng: np.random.Generator) -> np.ndarray:
    """Unit vectors distributed about `center` with the per-axis error density.

    Row i is cos_chi c + sin_chi cos(az) e1 + sin_chi sin(az) e2, summed left to
    right one column at a time into the (count, 3) result.
    """
    cos_chi = sample_error_cosines(n, count, rng)
    sin_chi = np.sqrt(np.clip(1.0 - cos_chi**2, 0.0, None))
    azimuth = rng.uniform(0.0, 2.0 * math.pi, count)
    c = center.as_array()
    e1 = perpendicular_unit(center).as_array()
    e2 = np.cross(c, e1)
    along_e1 = np.cos(azimuth)
    along_e1 *= sin_chi
    along_e2 = np.sin(azimuth, out=azimuth)
    along_e2 *= sin_chi
    out = np.empty((count, 3))
    term = np.empty(count)
    for k in range(3):
        column = out[:, k]
        np.multiply(cos_chi, c[k], out=column)
        column += np.multiply(along_e1, e1[k], out=term)
        column += np.multiply(along_e2, e2[k], out=term)
    return out


@dataclass
class OutcomeBatch:
    """Vectorized outcome stream for the two transmitted directions."""

    n: int
    v1: UnitVector
    v2: UnitVector
    est1: np.ndarray
    est2: np.ndarray

    @property
    def cos_chi1(self) -> np.ndarray:
        return self.est1 @ self.v1.as_array()

    @property
    def cos_chi2(self) -> np.ndarray:
        return self.est2 @ self.v2.as_array()

    @property
    def chi1(self) -> np.ndarray:
        return np.arccos(np.clip(self.cos_chi1, -1.0, 1.0))

    @property
    def chi2(self) -> np.ndarray:
        return np.arccos(np.clip(self.cos_chi2, -1.0, 1.0))

    def write_csv(self, path):
        """Columns (sample, chi1, chi2, cos_chi1, cos_chi2): CRLF rows with
        `%.12g` cells, the bytes `csv.writer` gives for the same cells,
        rendered and written in blocks of `_DUMP_BLOCK_ROWS` rows."""
        columns = (self.chi1, self.chi2, self.cos_chi1, self.cos_chi2)
        count = len(self.est1)
        with open(path, "wb") as handle:
            handle.write(_DUMP_HEADER)
            for start in range(0, count, _DUMP_BLOCK_ROWS):
                stop = min(start + _DUMP_BLOCK_ROWS, count)
                cells = [None] * (5 * (stop - start))
                cells[0::5] = range(start, stop)
                for k, column in enumerate(columns, start=1):
                    cells[k::5] = column[start:stop].tolist()
                handle.write((_DUMP_ROW * (stop - start)) % tuple(cells))


def sample_outcome_batch(n: int, v1: UnitVector, v2: UnitVector, count: int,
                         seed: int) -> OutcomeBatch:
    rng = philox_rng(seed)
    est1 = sample_directions_about(n, v1, count, rng)
    est2 = sample_directions_about(n, v2, count, rng)
    return OutcomeBatch(n, v1, v2, est1, est2)


# ---------------------------------------------------------------------------
# Diagnostics.

@dataclass
class BlockOperator:
    """Hermitian operator block-diagonal over l, plus the residual off-block weight."""

    n: int
    blocks: list
    off_block_max: float

    def block_constants(self) -> np.ndarray:
        """trace(block_l) / (2l+1) for each l."""
        return np.array(
            [np.trace(b).real / (2 * l + 1) for l, b in enumerate(self.blocks)]
        )

    def relative_spread(self) -> float:
        c = self.block_constants()
        return float((c.max() - c.min()) / c.mean())


def stark_set_operator(n: int) -> BlockOperator:
    """Direction average of rotated maximal-K projectors, over solid angle.

    B = integral over the sphere of |K,u><K,u| dOmega. Each l-block comes out
    proportional to the identity but with a different constant
    4 pi C_l^2 / (2l+1) per l, so B is not a multiple of the identity and the
    rotated Stark family cannot resolve it by Schur weighting alone.
    """
    stark = extreme_stark(n)
    c_l = stark.m0_amplitudes().real

    n_theta, n_phi = 2 * n, 4 * n + 4
    x, w_theta = np.polynomial.legendre.leggauss(n_theta)
    thetas = np.arccos(x)
    phis = np.arange(n_phi) * 2.0 * math.pi / n_phi
    dim = n * n

    vectors = np.zeros((n_theta * n_phi, dim), dtype=complex)
    offset = 0
    for l in range(n):
        m_vals = np.arange(-l, l + 1)
        d_col = small_d_matrices(l, thetas)[:, :, l]  # d^l_{m,0}(theta)
        phase = np.exp(-1j * np.outer(phis, m_vals))
        amp = c_l[l] * np.einsum("tm,pm->tpm", d_col, phase).reshape(-1, 2 * l + 1)
        vectors[:, offset : offset + 2 * l + 1] = amp
        offset += 2 * l + 1

    weights = np.repeat(w_theta, n_phi) * (2.0 * math.pi / n_phi)
    full = (vectors.conj() * weights[:, None]).T @ vectors

    blocks = []
    residual = full.copy()
    offset = 0
    for l in range(n):
        size = 2 * l + 1
        blocks.append(full[offset : offset + size, offset : offset + size].copy())
        residual[offset : offset + size, offset : offset + size] = 0.0
        offset += size
    return BlockOperator(n, blocks, float(np.abs(residual).max()))


def so4_povm_completeness_check(n: int) -> float:
    """Max |entry| deviation of the doubly integrated product POVM from identity.

    Each SO(3) factor is integrated on its own Euler grid at the degree of the
    spin-j representation; the product is their Kronecker product.
    """
    j = (n - 1) / 2.0
    factors = []
    for u in (X_AXIS, Y_AXIS):
        theta_u, phi_u = u.spherical()
        c = coherent_coeffs(j, theta_u, phi_u)
        n_beta, n_ang = n, 2 * n + 2
        x, w_beta = np.polynomial.legendre.leggauss(n_beta)
        betas = np.arccos(x)
        angles = np.arange(n_ang) * 2.0 * math.pi / n_ang
        m_vals = np.arange(n) - j
        phase_psi = np.exp(-1j * np.outer(angles, m_vals))  # rows psi, cols m'
        phase_phi = np.exp(-1j * np.outer(m_vals, angles))  # rows m, cols phi
        d_stack = small_d_matrices(j, betas)
        factor = np.zeros((n, n), dtype=complex)
        for b in range(n_beta):
            rotated = d_stack[b] @ (c[:, None] * phase_phi)  # (m', phi)
            v = phase_psi.T[:, :, None] * rotated[:, None, :]  # (m', psi, phi)
            factor += (w_beta[b] / 2.0) * np.einsum("apq,bpq->ab", v, v.conj()) / (
                n_ang * n_ang
            )
        factor *= n  # Schur weight 2j+1
        factors.append(factor)
    product = np.kron(factors[0], factors[1])
    return float(np.abs(product - np.eye(n * n)).max())
