"""Orthogonalization of Bob's two axis estimates and the 3/4 error gain.

When two orthogonal axes are transmitted through the product measurement, the
estimates of x and y come back independently scattered and are generally not
perpendicular. Rotating both estimates in their common plane, symmetrically
about their bisector, restores exact orthogonality while moving each estimate
by only half the angle defect. In the large-n limit this reduces the per-axis
mean square error by the factor 3/4.

The construction here is the exact in-plane rotation, not its first-order
expansion, so the 3/4 factor is a measured limit rather than an input. The
Monte Carlo path holds the estimates as columns of (3, rows) blocks, so each
arithmetic step runs over one contiguous component row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import two_axis_eta
from .povm_so4 import _DUMP_BLOCK_ROWS, _segments, sample_directions_about


@dataclass(frozen=True)
class GainReport:
    """Per-axis mean square error before and after orthogonalization."""

    n: int
    samples: int
    g: float
    g_new: float
    ratio: float
    ratio_stderr: float


def _orthogonalize_rows(r_x, r_y, x_rows=slice(None), y_rows=slice(None), out=None):
    """Exact symmetric in-plane orthogonalization of paired unit estimates,
    the columns of the (3, rows) arrays r_x and r_y.

    Writes each input as cos(Omega/2) b + sin(Omega/2) q in the orthonormal
    in-plane basis (bisector b, difference direction q) and moves both to the
    45 degree positions, so outputs are exactly perpendicular and each input
    travels |Omega - pi/2| / 2. b and q are formed in `out` (fresh if None)
    and normalized by (v0 v0 + v1 v1) + v2 v2, the sum `np.linalg.norm` forms
    over a (rows, 3) row. Only components `x_rows` of new_x and `y_rows` of
    new_y are formed, both all rows or one row each, and only those rows of b
    and q are divided.
    """
    b, q = np.empty((2,) + r_x.shape) if out is None else out
    np.add(r_x, r_y, out=b)
    np.subtract(r_x, r_y, out=q)
    for v in (b, q):
        norm = v[0] * v[0] + v[1] * v[1] + v[2] * v[2]
        np.sqrt(norm, out=norm)
        if np.any(norm < 1e-12):
            raise ValueError("cannot orthogonalize parallel or antiparallel estimates")
        v[x_rows] /= norm
        if y_rows != x_rows:
            v[y_rows] /= norm
    half = 1.0 / math.sqrt(2.0)
    return (b[x_rows] + q[x_rows]) * half, (b[y_rows] - q[y_rows]) * half


def _error_pair(n: int, samples: int, seed: int) -> np.ndarray:
    """Each sample's error (after, before) orthogonalization, by blocks in four
    reused (3, rows) buffers freed on return. The bits are one pass over the
    seed's stream: cosines about x, their azimuths, then the same two about y."""
    pair = np.empty((2, samples))
    after, before = pair
    cos_x, azimuth_x, cos_y, azimuth_y = _segments(seed, samples)
    buffers = np.empty((4, 3 * _DUMP_BLOCK_ROWS))
    for start in range(0, samples, _DUMP_BLOCK_ROWS):
        rows = min(_DUMP_BLOCK_ROWS, samples - start)
        r_x, r_y, b, q = (buffer[: 3 * rows].reshape(3, rows) for buffer in buffers)
        sample_directions_about(n, 0, rows, cos_x, azimuth_x, r_x)
        sample_directions_about(n, 1, rows, cos_y, azimuth_y, r_y)
        before[start : start + rows] = two_axis_eta(r_x[0], r_y[1])
        new_x, new_y = _orthogonalize_rows(r_x, r_y, 0, 1, out=(b, q))
        after[start : start + rows] = two_axis_eta(new_x, new_y)
    return pair


def gain_factor(n: int, samples: int, seed: int) -> GainReport:
    """Monte-Carlo per-axis error before/after orthogonalization and their ratio.

    g is 1/4 <1 - cos omega_x> + 1/4 <1 - cos omega_y> over the raw estimates,
    g_new the same after orthogonalization; the ratio carries a delta-method
    standard error. At least 1e5 samples are required for the error bars to
    mean anything.
    """
    if samples < 100000:
        raise ValueError("gain estimation requires at least 1e5 samples")
    # after and before are kept whole: their means and covariance are pairwise
    # sums over all samples, and would change bits if split per block
    after, before = pair = _error_pair(n, samples, seed)
    g = float(before.mean())
    g_new = float(after.mean())
    ratio = g_new / g
    cov = np.cov(pair)
    var_ratio = (
        cov[0, 0] - 2.0 * ratio * cov[0, 1] + ratio * ratio * cov[1, 1]
    ) / (g * g * samples)
    return GainReport(n, samples, g, g_new, ratio, math.sqrt(max(var_ratio, 0.0)))
