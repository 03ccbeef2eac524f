"""One-shot Monte Carlo: the oracle for the block-streamed sampling path.

Draws every sample in one pass over `philox_rng(seed)`, through whole
(count, 3) estimate arrays, and reduces them as whole arrays: the layout the
streamed `direction_blocks` must reproduce bit for bit. `so4`'s cosines have
their own one-pass oracle, which draws them with no azimuths or vectors.
"""

import math

import numpy as np

from rydberg_frames.geometry import X_AXIS, Y_AXIS
from rydberg_frames.ortho import GainReport, _orthogonalize_rows
from rydberg_frames.povm_so4 import philox_rng, sample_directions_about


def sample_error_arrays(n, count, seed, v1=X_AXIS, v2=Y_AXIS):
    """(count, 3) estimates of v1, then of v2, from one generator."""
    rng = philox_rng(seed)
    est1 = sample_directions_about(n, v1, count, rng, rng)
    est2 = sample_directions_about(n, v2, count, rng, rng)
    return est1, est2


def one_shot_cosines(n, count, seed):
    """cos_chi1 and cos_chi2 of `sample_outcome_batch` in one pass over the
    stream: the v1 cosines, `count` skipped doubles (the azimuths about v1 in
    `sample_error_arrays`), then the v2 cosines, each as one whole expression."""
    rng = philox_rng(seed)

    def draw():
        return 1.0 - 2.0 * (1.0 - (1.0 - rng.random(count)) ** (1.0 / n))

    cos_chi1 = draw()
    rng.random(count)
    return cos_chi1, draw()


def outcome_cosines(n, v1, v2, count, seed):
    """The error cosines by the vector route: the estimates of
    `sample_error_arrays` dotted with v1 and v2."""
    est1, est2 = sample_error_arrays(n, count, seed, v1, v2)
    return est1 @ v1.as_array(), est2 @ v2.as_array()


def gain_factor(n, samples, seed):
    """`ortho.gain_factor` on whole arrays."""
    r_x, r_y = sample_error_arrays(n, samples, seed)
    new_x, new_y = _orthogonalize_rows(r_x, r_y)
    before = 0.25 * (1.0 - r_x[:, 0]) + 0.25 * (1.0 - r_y[:, 1])
    after = 0.25 * (1.0 - new_x[:, 0]) + 0.25 * (1.0 - new_y[:, 1])
    g = float(before.mean())
    g_new = float(after.mean())
    ratio = g_new / g
    cov = np.cov(np.stack([after, before]))
    var_ratio = (
        cov[0, 0] - 2.0 * ratio * cov[0, 1] + ratio * ratio * cov[1, 1]
    ) / (g * g * samples)
    return GainReport(n, samples, g, g_new, ratio, math.sqrt(max(var_ratio, 0.0)))
