"""One-shot Monte Carlo: the oracle for the block-streamed sampling path.

Draws every sample in one pass over `philox_rng(seed)` into whole (count, 3)
row-layout estimate arrays, by broadcast expressions frozen here, and reduces
the whole error arrays by the same block partials and its own Chan update: the
values the column-major, block-streamed kernel of `ortho.gain_factor` must
reproduce bit for bit. `so4`'s cosines have their own
one-pass oracle, which draws them with no azimuths or vectors, and its outcome
dump is written row by row through `csv.writer` (`csv_writer_dump`).
`block_cosines` gathers the cosines `so4` draws block by block, which no
command keeps whole, so the tests can hold them against the oracles.
"""

import csv
import math

import numpy as np

from rydberg_frames.ortho import GainReport
from rydberg_frames import povm_so4
from rydberg_frames.povm_so4 import philox_rng

from rotation_oracle import X_AXIS, Y_AXIS, as_array


def cosines(n, count, rng):
    """Error cosines by the inverse CDF on s = sin^2(chi/2), as one expression."""
    return 1.0 - 2.0 * (1.0 - (1.0 - rng.random(count)) ** (1.0 / n))


def frame(center):
    """The orthonormal frame (c, e1, c x e1) about `center`, with e1 = c x z,
    or c x x near the poles, normalized."""
    c = as_array(center)
    e1 = np.cross(c, [0.0, 0.0, 1.0])
    if np.linalg.norm(e1) < 1e-9:
        e1 = np.cross(c, [1.0, 0.0, 0.0])
    e1 /= np.linalg.norm(e1)
    return c, e1, np.cross(c, e1)


def directions(n, center, count, rng):
    """(count, 3) estimates about `center` as one broadcast expression: the
    cosines, then the azimuths in [-pi, pi), from one generator. The azimuth
    is measured from -e1, and its sine is taken from its cosine."""
    cos_chi = cosines(n, count, rng)
    sin_chi = np.sqrt(np.clip(1.0 - cos_chi**2, 0.0, None))
    azimuth = rng.uniform(-math.pi, math.pi, count)
    cos_az = np.cos(azimuth)
    c, e1, e2 = frame(center)
    return (
        cos_chi[:, None] * c[None, :]
        + (sin_chi * cos_az)[:, None] * -e1[None, :]
        + (sin_chi * np.copysign(np.sqrt((1.0 - cos_az) * (1.0 + cos_az)), azimuth))[:, None]
        * -e2[None, :]
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
    """The `so4` cosines in one pass over the stream: the v1 cosines, `count`
    skipped doubles (the azimuths about v1 in `sample_error_arrays`), then the
    v2 cosines, each as one whole expression."""
    rng = philox_rng(seed)
    cos_chi1 = cosines(n, count, rng)
    rng.random(count)
    return cos_chi1, cosines(n, count, rng)


def block_cosines(n, count, seed):
    """The (2, count) cosines `so4` draws, its blocks' `_block_cosines`
    concatenated in order, at the block size of the moment."""
    blocks = [povm_so4._block_cosines(n, count, seed, start)
              for start in range(0, count, povm_so4._DUMP_BLOCK_ROWS)]
    return np.concatenate(blocks, axis=1) if blocks else np.empty((2, 0))


def csv_writer_dump(pair, path):
    """The outcome dump of the two cosine arrays `pair` written row by
    row through `csv.writer`, with `%.12g` cells and chi taken of the whole
    arrays: the bytes the block renderer of `OutcomeBatch.write_csv` must
    reproduce."""
    cos_chi1, cos_chi2 = pair
    chi1, chi2 = (np.arccos(np.clip(c, -1.0, 1.0)) for c in (cos_chi1, cos_chi2))
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["sample", "chi1", "chi2", "cos_chi1", "cos_chi2"])
        for i, (x1, x2, c1, c2) in enumerate(zip(chi1, chi2, cos_chi1, cos_chi2)):
            writer.writerow([i, f"{x1:.12g}", f"{x2:.12g}", f"{c1:.12g}", f"{c2:.12g}"])


def outcome_cosines(n, v1, v2, count, seed):
    """The error cosines by the vector route: the estimates of
    `sample_error_arrays` dotted with v1 and v2."""
    est1, est2 = sample_error_arrays(n, count, seed, v1, v2)
    return est1 @ as_array(v1), est2 @ as_array(v2)


def error_pair(n, samples, seed):
    """Each sample's error (after, before) orthogonalization, as a (2, samples)
    array of whole-array expressions."""
    r_x, r_y = sample_error_arrays(n, samples, seed)
    new_x, new_y = orthogonalize(r_x, r_y)
    after = 0.25 * (1.0 - new_x[:, 0]) + 0.25 * (1.0 - new_y[:, 1])
    before = 0.25 * (1.0 - r_x[:, 0]) + 0.25 * (1.0 - r_y[:, 1])
    return np.stack([after, before])


def chan_combined(partials):
    """(mean, M2) of all samples from the (rows, mean, M2) of each block, by
    the pairwise update of Chan, Golub & LeVeque (Am. Stat. 37, 242 (1983))
    written out per entry of the mean pair and the 2 x 2 co-moment."""
    total = 0
    for rows, mean, m2 in partials:
        if total == 0:
            total_mean, total_m2 = list(mean), [list(row) for row in m2]
        else:
            delta = [b - a for a, b in zip(total_mean, mean)]
            weight = total * rows / (total + rows)
            for i in range(2):
                for k in range(2):
                    total_m2[i][k] = total_m2[i][k] + m2[i][k] + delta[i] * delta[k] * weight
            total_mean = [a + d * (rows / (total + rows)) for a, d in zip(total_mean, delta)]
        total += rows
    return np.array(total_mean), np.array(total_m2)


def block_partials(pair):
    """(rows, mean, M2) of each block of `povm_so4._DUMP_BLOCK_ROWS` columns of
    the (2, samples) `pair`: numpy's `mean` of each row and the sums of the
    products of the deviations."""
    for start in range(0, pair.shape[1], povm_so4._DUMP_BLOCK_ROWS):
        block = pair[:, start : start + povm_so4._DUMP_BLOCK_ROWS]
        mean = block.mean(axis=1)
        deviations = [row - m for row, m in zip(block, mean)]
        yield block.shape[1], mean, [[(a * b).sum() for b in deviations] for a in deviations]


def gain_factor(n, samples, seed):
    """`ortho.gain_factor` on whole arrays, reduced by the same block partials."""
    (g_new, g), m2 = chan_combined(block_partials(error_pair(n, samples, seed)))
    g, g_new = float(g), float(g_new)
    ratio = g_new / g
    cov = m2 / (samples - 1)
    var_ratio = (
        cov[0, 0] - 2.0 * ratio * cov[0, 1] + ratio * ratio * cov[1, 1]
    ) / (g * g * samples)
    return GainReport(n, samples, g, g_new, ratio, math.sqrt(max(var_ratio, 0.0)))
