"""One-shot Monte Carlo: the oracle for the block-streamed sampling path.

Draws every sample in one pass over `philox_rng(seed)` into whole (count, 3)
row-layout estimate arrays, by broadcast expressions frozen here, and reduces
them as whole arrays: the values the column-major, block-streamed kernel of
`ortho.gain_factor` must reproduce bit for bit. `so4`'s cosines have their own
one-pass oracle, which draws them with no azimuths or vectors, and its outcome
dump is written row by row through `csv.writer` (`csv_writer_dump`).
"""

import csv
import math

import numpy as np

from rydberg_frames.geometry import X_AXIS, Y_AXIS
from rydberg_frames.ortho import GainReport
from rydberg_frames.povm_so4 import philox_rng


def cosines(n, count, rng):
    """Error cosines by the inverse CDF on s = sin^2(chi/2), as one expression."""
    return 1.0 - 2.0 * (1.0 - (1.0 - rng.random(count)) ** (1.0 / n))


def frame(center):
    """The orthonormal frame (c, e1, c x e1) about `center`, with e1 = c x z,
    or c x x near the poles, normalized."""
    c = center.as_array()
    e1 = np.cross(c, [0.0, 0.0, 1.0])
    if np.linalg.norm(e1) < 1e-9:
        e1 = np.cross(c, [1.0, 0.0, 0.0])
    e1 /= np.linalg.norm(e1)
    return c, e1, np.cross(c, e1)


def directions(n, center, count, rng):
    """(count, 3) estimates about `center` as one broadcast expression: the
    cosines, then the azimuths, from one generator."""
    cos_chi = cosines(n, count, rng)
    sin_chi = np.sqrt(np.clip(1.0 - cos_chi**2, 0.0, None))
    azimuth = rng.uniform(0.0, 2.0 * math.pi, count)
    c, e1, e2 = frame(center)
    return (
        cos_chi[:, None] * c[None, :]
        + (sin_chi * np.cos(azimuth))[:, None] * e1[None, :]
        + (sin_chi * np.sin(azimuth))[:, None] * e2[None, :]
    )


def orthogonalize(r_x, r_y):
    """The orthogonalization of paired (rows, 3) estimates as array expressions."""
    total = r_x + r_y
    diff = r_x - r_y
    b = total / np.linalg.norm(total, axis=-1, keepdims=True)
    q = diff / np.linalg.norm(diff, axis=-1, keepdims=True)
    half = 1.0 / math.sqrt(2.0)
    return half * (b + q), half * (b - q)


def sample_error_arrays(n, count, seed, v1=X_AXIS, v2=Y_AXIS):
    """(count, 3) estimates of v1, then of v2, from one generator."""
    rng = philox_rng(seed)
    return directions(n, v1, count, rng), directions(n, v2, count, rng)


def one_shot_cosines(n, count, seed):
    """cos_chi1 and cos_chi2 of `sample_outcome_batch` in one pass over the
    stream: the v1 cosines, `count` skipped doubles (the azimuths about v1 in
    `sample_error_arrays`), then the v2 cosines, each as one whole expression."""
    rng = philox_rng(seed)
    cos_chi1 = cosines(n, count, rng)
    rng.random(count)
    return cos_chi1, cosines(n, count, rng)


def csv_writer_dump(batch, path):
    """The outcome dump of `batch` written row by row through `csv.writer`, with
    `%.12g` cells and chi taken of the whole cosine arrays: the bytes the block
    renderer of `OutcomeBatch.write_csv` must reproduce."""
    chi1, chi2 = (np.arccos(np.clip(c, -1.0, 1.0)) for c in (batch.cos_chi1, batch.cos_chi2))
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["sample", "chi1", "chi2", "cos_chi1", "cos_chi2"])
        for i, (x1, x2, c1, c2) in enumerate(
            zip(chi1, chi2, batch.cos_chi1, batch.cos_chi2)
        ):
            writer.writerow([i, f"{x1:.12g}", f"{x2:.12g}", f"{c1:.12g}", f"{c2:.12g}"])


def outcome_cosines(n, v1, v2, count, seed):
    """The error cosines by the vector route: the estimates of
    `sample_error_arrays` dotted with v1 and v2."""
    est1, est2 = sample_error_arrays(n, count, seed, v1, v2)
    return est1 @ v1.as_array(), est2 @ v2.as_array()


def gain_factor(n, samples, seed):
    """`ortho.gain_factor` on whole arrays."""
    r_x, r_y = sample_error_arrays(n, samples, seed)
    new_x, new_y = orthogonalize(r_x, r_y)
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
