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
from collections import namedtuple

import numpy as np

from .geometry import two_axis_eta
from .povm_so4 import (_DUMP_BLOCK_ROWS, _block_streams, _combined, _moments,
                       sample_directions_about)


# per-axis mean square error before and after orthogonalization
GainReport = namedtuple("GainReport", "n samples g g_new ratio ratio_stderr")


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


def _ortho_block(n: int, samples: int, seed: int, buffers: np.ndarray, start: int):
    """The `_moments` of the errors (after, before) orthogonalization of the
    block of samples from `start`, drawn from the four `_block_streams`. r_x,
    r_y, b and q, (3, rows) each, and the (2, rows) errors take the front of
    `buffers`, 14 * `_DUMP_BLOCK_ROWS` doubles reused by every block."""
    rows = min(_DUMP_BLOCK_ROWS, samples - start)
    r_x, r_y, *bq = buffers[: 12 * rows].reshape(4, 3, rows)
    errors = buffers[12 * rows : 14 * rows].reshape(2, rows)
    cos_x, azimuth_x, cos_y, azimuth_y = _block_streams(seed, samples, start, range(4))
    sample_directions_about(n, 0, rows, cos_x, azimuth_x, r_x)
    sample_directions_about(n, 1, rows, cos_y, azimuth_y, r_y)
    errors[1] = two_axis_eta(r_x[0], r_y[1])
    errors[0] = two_axis_eta(*_orthogonalize_rows(r_x, r_y, 0, 1, out=bq))
    return _moments(errors)


def gain_factor(n: int, samples: int, seed: int) -> GainReport:
    """Monte-Carlo per-axis error before/after orthogonalization and their ratio.

    g is 1/4 <1 - cos omega_x> + 1/4 <1 - cos omega_y> over the raw estimates,
    g_new the same after orthogonalization; the ratio carries a delta-method
    standard error. At least 1e5 samples are required for the error bars to
    mean anything. The blocks are reduced in turn in one set of buffers.
    """
    if samples < 100000:
        raise ValueError("gain estimation requires at least 1e5 samples")
    buffers = np.empty(14 * _DUMP_BLOCK_ROWS)
    mean, m2 = _combined(_ortho_block(n, samples, seed, buffers, start)
                         for start in range(0, samples, _DUMP_BLOCK_ROWS))
    g_new, g = mean.tolist()
    ratio = g_new / g
    cov = m2 / (samples - 1)
    var_ratio = (
        cov[0, 0] - 2.0 * ratio * cov[0, 1] + ratio * ratio * cov[1, 1]
    ) / (g * g * samples)
    return GainReport(n, samples, g, g_new, ratio, math.sqrt(max(var_ratio, 0.0)))
