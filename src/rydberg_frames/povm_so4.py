"""Product SO(4) measurement: closed forms, outcome sampling, a diagnostic.

The measurement factorizes into one covariant SO(3) POVM per spin-j factor
(j = (n-1)/2), so each transmitted direction is estimated independently with
solid-angle error density (2j+1)/(4 pi) cos^{2(n-1)}(chi/2) about the true
direction. That density integrates to one and has <cos chi> = (n-1)/(n+1),
hence a per-direction mean square error of exactly 1/(n+1) for every n.

All sampling is rejection-free through the inverse CDF on s = sin^2(chi/2)
and uses numpy's counter-based 64-bit Philox generator with an explicit seed
in every API. `direction_blocks` streams the estimates in blocks of
`_DUMP_BLOCK_ROWS` rows, the same rows as one pass over the seed's stream, by
Philox skip-ahead (Salmon et al., SC11, 2011); callers keep only 1-D
per-sample values, e.g. the two error cosines of `so4` (16 B per sample).

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

# The Monte Carlo path draws, reduces and renders this many rows at a time, so
# no (count, 3) array and no Python floats of the whole batch exist at once.
_DUMP_BLOCK_ROWS = 65536
_DUMP_HEADER = b"sample,chi1,chi2,cos_chi1,cos_chi2\r\n"
_DUMP_ROW = b"%d,%.12g,%.12g,%.12g,%.12g\r\n"


def philox_rng(seed: int) -> np.random.Generator:
    """Counter-based 64-bit generator. A command draws all its samples from the
    one stream of its seed; `_stream_at` positions a generator anywhere in that
    stream by `advance`, so blocks are drawn without the doubles before them."""
    return np.random.Generator(np.random.Philox(seed))


def _stream_at(seed: int, offset: int) -> np.random.Generator:
    """`philox_rng(seed)` after `offset` doubles have been drawn from it.

    Each Philox counter step yields four doubles, so advance by the whole steps
    and discard the remainder.
    """
    rng = philox_rng(seed)
    rng.bit_generator.advance(offset // 4)
    rng.random(offset % 4)
    return rng


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
                            cos_rng: np.random.Generator,
                            azimuth_rng: np.random.Generator) -> np.ndarray:
    """Unit vectors distributed about `center` with the per-axis error density.

    The error cosines come from `cos_rng` and the azimuths from `azimuth_rng`
    (one generator passed twice draws the cosines first). Row i is
    cos_chi c + sin_chi cos(az) e1 + sin_chi sin(az) e2, summed left to right
    one column at a time into the (count, 3) result.
    """
    cos_chi = sample_error_cosines(n, count, cos_rng)
    sin_chi = np.sqrt(np.clip(1.0 - cos_chi**2, 0.0, None))
    azimuth = azimuth_rng.uniform(0.0, 2.0 * math.pi, count)
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


def direction_blocks(n: int, v1: UnitVector, v2: UnitVector, count: int, seed: int):
    """Yield (start, est1, est2): estimates of v1 and v2 for rows start .. start
    + len(est1) - 1, in blocks of `_DUMP_BLOCK_ROWS` rows.

    The rows are those of one pass over `philox_rng(seed)`, which draws four
    segments of `count` doubles: the cosines for v1, its azimuths, then the same
    two for v2. Each segment has its own generator positioned at its start.
    """
    cos1, azimuth1, cos2, azimuth2 = (_stream_at(seed, k * count) for k in range(4))
    for start in range(0, count, _DUMP_BLOCK_ROWS):
        rows = min(_DUMP_BLOCK_ROWS, count - start)
        yield (start,
               sample_directions_about(n, v1, rows, cos1, azimuth1),
               sample_directions_about(n, v2, rows, cos2, azimuth2))


@dataclass
class OutcomeBatch:
    """Error cosines of the two transmitted directions, one pair per sample."""

    cos_chi1: np.ndarray
    cos_chi2: np.ndarray

    def write_csv(self, path):
        """Columns (sample, chi1, chi2, cos_chi1, cos_chi2): CRLF rows with
        `%.12g` cells, the bytes `csv.writer` gives for the same cells,
        rendered and written in blocks of `_DUMP_BLOCK_ROWS` rows."""
        count = len(self.cos_chi1)
        with open(path, "wb") as handle:
            handle.write(_DUMP_HEADER)
            for start in range(0, count, _DUMP_BLOCK_ROWS):
                stop = min(start + _DUMP_BLOCK_ROWS, count)
                cos_pair = (self.cos_chi1[start:stop], self.cos_chi2[start:stop])
                columns = [np.arccos(np.clip(c, -1.0, 1.0)) for c in cos_pair] + list(cos_pair)
                cells = [None] * (5 * (stop - start))
                cells[0::5] = range(start, stop)
                for k, column in enumerate(columns, start=1):
                    cells[k::5] = column.tolist()
                handle.write((_DUMP_ROW * (stop - start)) % tuple(cells))


def sample_outcome_batch(n: int, v1: UnitVector, v2: UnitVector, count: int,
                         seed: int) -> OutcomeBatch:
    """Sample `count` outcome pairs and keep only their error cosines."""
    cos_chi1, cos_chi2 = np.empty(count), np.empty(count)
    for start, est1, est2 in direction_blocks(n, v1, v2, count, seed):
        stop = start + len(est1)
        np.matmul(est1, v1.as_array(), out=cos_chi1[start:stop])
        np.matmul(est2, v2.as_array(), out=cos_chi2[start:stop])
    return OutcomeBatch(cos_chi1, cos_chi2)


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
