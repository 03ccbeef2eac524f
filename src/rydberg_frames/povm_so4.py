"""Product SO(4) measurement: closed forms, outcome sampling, a diagnostic.

The measurement factorizes into one covariant SO(3) POVM per spin-j factor
(j = (n-1)/2), so each transmitted direction is estimated independently with
solid-angle error density (2j+1)/(4 pi) cos^{2(n-1)}(chi/2) about the true
direction. That density integrates to one and has <cos chi> = (n-1)/(n+1),
hence a per-direction mean square error of exactly 1/(n+1) for every n.

All sampling is rejection-free through the inverse CDF on s = sin^2(chi/2)
and uses numpy's counter-based 64-bit Philox generator with an explicit seed
in every API.

The diagnostic, that rotated maximal-K projectors alone do not resolve the
identity, is a Haar integral of D-functions and is given in closed form
(`stark_block_constants`). The tests integrate it, and the completeness of the
product POVM, on explicit grids as oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import UnitVector, perpendicular_unit
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


def so4_infidelity(n: int) -> float:
    """Per-axis mean square error 1/(n+1), i.e. <cos omega> = (n-1)/(n+1)."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
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
# Diagnostic: the rotated maximal-K projectors do not resolve the identity.

def stark_block_constants(n: int) -> np.ndarray:
    """Block constants of the direction average of rotated maximal-K projectors.

    B = integral over the sphere of |K,u><K,u| dOmega. The l-block of |K,u> is
    C_l D^l_{m0}(phi, theta, 0), with C_l the m=0 amplitude of the maximal-K
    state, so Schur orthogonality (Edmonds, eq. 4.6.2) makes B block-diagonal
    over l, exactly zero off the blocks, with block l equal to
    4 pi C_l^2 / (2l+1) times the identity. The constants differ with l, so B
    is not a multiple of the identity and the rotated Stark family cannot
    resolve it by Schur weighting alone.
    """
    c_l = extreme_stark(n).m0_amplitudes().real
    return 4.0 * math.pi * c_l**2 / (2 * np.arange(n) + 1)
