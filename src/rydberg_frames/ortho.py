"""Orthogonalization of Bob's two axis estimates and the 3/4 error gain.

When two orthogonal axes are transmitted through the product measurement, the
estimates of x and y come back independently scattered and are generally not
perpendicular. Rotating both estimates in their common plane, symmetrically
about their bisector, restores exact orthogonality while moving each estimate
by only half the angle defect. In the large-n limit this reduces the per-axis
mean square error by the factor 3/4.

The construction is the exact in-plane rotation, not its first-order
expansion, so the 3/4 factor is a measured limit rather than an input. The
Monte Carlo path forms no estimate as a vector: it takes the errors from the
estimates' dot product, on `so4`'s two error cosines and two azimuths.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .povm_so4 import _DUMP_BLOCK_ROWS, _block_cosines, _block_streams, _combined, _moments


# per-axis mean square error before and after orthogonalization
GainReport = namedtuple("GainReport", "n samples g g_new ratio ratio_stderr")


def _ortho_block(n: int, samples: int, seed: int, buffers: np.ndarray, start: int):
    """The `_moments` of the errors (after, before) orthogonalization of the
    block of samples from `start`, from the estimates' dot product d.

    The cosines c come from segments 0 and 2 of the stream (`_block_cosines`)
    and the azimuths az in [-pi, pi) from segments 1 and 3; with
    s = sqrt(1 - c^2), the estimates are r_x = (c_x, s_x cos az_x,
    s_x sin az_x) and r_y = (-s_y cos az_y, c_y, s_y sin az_y), and
    sin az_x sin az_y = copysign(sqrt((1 + cos az_x)(1 - cos az_x)
    (1 + cos az_y)(1 - cos az_y)), az_x az_y). The rotation takes r_x and r_y
    to (b/|b| +- q/|q|) / sqrt(2), b = r_x + r_y and q = r_x - r_y, where
    |b|^2 = 2 + 2d and |q|^2 = 2 - 2d; so the after-error is
    1/2 - (P/|b| + Q/|q|) / (4 sqrt(2)), P and Q = c_x + c_y +- (r_x1 + r_y0).
    2 +- 2d below 1e-24 or NaN (parallel or antiparallel estimates) is
    refused. Five rows of `buffers` hold the intermediates, and the cosines'
    array the errors.
    """
    cos_chi = _block_cosines(n, samples, seed, start)
    c_x, c_y = cos_chi
    rows = cos_chi.shape[1]
    scratch = buffers[: 5 * rows].reshape(5, rows)
    az, cos_az, spare = scratch[:2], scratch[2:4], scratch[4]
    for azimuth, rng in zip(az, _block_streams(seed, samples, start, (1, 3))):
        rng.random(rows, out=azimuth)
    az *= 2.0 * math.pi  # the bits of rng.uniform(-pi, pi, rows)
    az -= math.pi
    (az_x, az_y), (cos_x, cos_y) = az, np.cos(az, out=cos_az)
    az_x *= az_y  # the sign of sin az_x sin az_y
    sines = np.add(1.0, cos_x, out=spare)
    sines *= np.subtract(1.0, cos_x, out=az_y)
    sines *= np.add(1.0, cos_y, out=az_y)
    sines *= np.subtract(1.0, cos_y, out=az_y)
    np.copysign(np.sqrt(sines, out=sines), az_x, out=sines)
    sin_chi = np.square(cos_chi, out=az)  # |c| <= 1, so 1 - c^2 >= 0
    np.subtract(1.0, sin_chi, out=sin_chi)
    s_x, s_y = np.sqrt(sin_chi, out=sin_chi)
    cos_x *= s_x  # r_x1
    cos_y *= s_y  # -r_y0
    s_x *= s_y
    sines *= s_x  # r_x2 r_y2
    dot = np.multiply(cos_x, c_y, out=s_y)
    dot -= np.multiply(c_x, cos_y, out=s_x)
    dot += sines
    norm_b = np.multiply(dot, 2.0, out=s_x)
    norm_q = np.subtract(2.0, norm_b, out=sines)
    norm_b += 2.0
    if not (norm_b.min() >= 1e-24 and norm_q.min() >= 1e-24):  # false for NaN as well
        raise ValueError("cannot orthogonalize parallel or antiparallel estimates")
    cos_x -= cos_y  # r_x1 + r_y0
    both = np.add(c_x, c_y, out=dot)
    p = np.add(both, cos_x, out=cos_y)
    q = np.subtract(both, cos_x, out=cos_x)
    p /= np.sqrt(norm_b, out=norm_b)
    q /= np.sqrt(norm_q, out=norm_q)
    p += q
    p *= 0.25 / math.sqrt(2.0)
    errors = np.subtract(1.0, cos_chi, out=cos_chi)
    errors *= 0.25
    np.add(c_x, c_y, out=c_y)  # 0.25 (1 - c_x) + 0.25 (1 - c_y), as `two_axis_eta`
    np.subtract(0.5, p, out=c_x)
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
    buffers = np.empty(5 * _DUMP_BLOCK_ROWS)
    mean, m2 = _combined(_ortho_block(n, samples, seed, buffers, start)
                         for start in range(0, samples, _DUMP_BLOCK_ROWS))
    g_new, g = mean.tolist()
    ratio = g_new / g
    cov = m2 / (samples - 1)
    var_ratio = (
        cov[0, 0] - 2.0 * ratio * cov[0, 1] + ratio * ratio * cov[1, 1]
    ) / (g * g * samples)
    return GainReport(n, samples, g, g_new, ratio, math.sqrt(max(var_ratio, 0.0)))
