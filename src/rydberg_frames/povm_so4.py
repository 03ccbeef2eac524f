"""Product SO(4) measurement: closed forms, outcome sampling, a diagnostic.

The measurement factorizes into one covariant SO(3) POVM per spin-j factor
(j = (n-1)/2), so each transmitted direction is estimated independently with
solid-angle error density (2j+1)/(4 pi) cos^{2(n-1)}(chi/2) about the true
direction. That density integrates to one and has <cos chi> = (n-1)/(n+1),
hence a per-direction mean square error of exactly 1/(n+1) for every n.

The density is the same about every axis, so no result depends on which
axes are sent: `so4` draws only the two error cosines (16 B per sample) and
`ortho` draws its estimates about x and y, as the columns of (3, rows) blocks.
All sampling is rejection-free through the inverse CDF on s = sin^2(chi/2)
and uses numpy's counter-based 64-bit Philox generator with an explicit seed
in every API. `_segments` splits the seed's stream into its four segments by
Philox skip-ahead (Salmon et al., SC11, 2011), so the bits are those of one
pass over the stream. `ordered_map` runs the dump's blocks and `ortho`'s
shells on forked workers, one per usable CPU, and returns the results in
order: no output byte depends on the CPUs.

The diagnostic, that rotated maximal-K projectors alone do not resolve the
identity, is a Haar integral of D-functions and is given in closed form
(`stark_block_constants`). The tests integrate it, and the completeness of the
product POVM, on explicit grids as oracles.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .states import extreme_stark

# The Monte Carlo path draws, reduces and renders this many samples at a time,
# so no (3, count) array and no Python floats of the whole batch exist at once.
_DUMP_BLOCK_ROWS = 65536
_DUMP_HEADER = b"sample,chi1,chi2,cos_chi1,cos_chi2\r\n"
_DUMP_ROW = b"%d,%.12g,%.12g,%.12g,%.12g\r\n"


def philox_rng(seed: int) -> np.random.Generator:
    """Counter-based 64-bit generator. A command draws all its samples from the
    one stream of its seed; `_segments` positions generators in that stream by
    `advance`, so blocks are drawn without the doubles before them."""
    return np.random.Generator(np.random.Philox(seed))


def _segments(seed: int, count: int) -> list:
    """The seed's stream as four segments of `count` doubles, one positioned
    generator each: the cosines about the first axis, their azimuths, then the
    same two about the second. Each Philox counter step yields four doubles,
    so a generator advances by the whole steps and discards the remainder."""
    segments = []
    for offset in (0, count, 2 * count, 3 * count):
        rng = philox_rng(seed)
        rng.bit_generator.advance(offset // 4)
        rng.random(offset % 4)
        segments.append(rng)
    return segments


def so4_infidelity(n: int) -> float:
    """Per-axis mean square error 1/(n+1), i.e. <cos omega> = (n-1)/(n+1)."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    return 1.0 / (n + 1.0)


def sample_error_cosines(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """cos(chi) draws from the density ~ cos^{2(n-1)}(chi/2) on the sphere.

    Inverse CDF on s = sin^2(chi/2): the density is n (1-s)^(n-1) ds, so
    s = 1 - (1-U)^(1/n) with U uniform. Runs in place in the draw's buffer,
    with the ufuncs and so the bits of 1.0 - 2.0 * (1.0 - (1.0 - U) ** (1.0 / n)).
    """
    out = rng.random(count)
    np.subtract(1.0, out, out=out)
    out **= 1.0 / n
    np.subtract(1.0, out, out=out)
    out *= 2.0
    return np.subtract(1.0, out, out=out)


def sample_directions_about(n: int, axis: int, count: int,
                            cos_rng: np.random.Generator,
                            azimuth_rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Estimates of coordinate axis `axis` (0 = x, 1 = y) with the per-axis
    error density, drawn into the columns of the C-contiguous (3, count) `out`.

    The error cosines come from `cos_rng` and the azimuths from `azimuth_rng`
    (one generator passed twice draws the cosines first). In the frame
    (axis, e1 = axis x z, axis x e1) the rows are (cos chi, -sin chi cos az,
    -sin chi sin az) about x and (sin chi cos az, cos chi, -sin chi sin az)
    about y, each a contiguous row.
    """
    out[axis] = sample_error_cosines(n, count, cos_rng)
    sin_chi = np.sqrt(np.clip(1.0 - out[axis] ** 2, 0.0, None))
    azimuth = azimuth_rng.uniform(0.0, 2.0 * math.pi, count)
    np.cos(azimuth, out=out[1 - axis])
    out[1 - axis] *= sin_chi
    np.multiply(np.sin(azimuth, out=azimuth), sin_chi, out=out[2])
    # e1 is -y about x and +x about y; axis x e1 is -z about both
    np.negative(out[axis + 1 :], out=out[axis + 1 :])
    return out


_inherited = None  # the function the workers of `ordered_map` inherit by fork


def _call_inherited(item):
    return _inherited(item)


def ordered_map(fn, items):
    """Yield fn(item) for each item, in order, on min(usable CPUs, items) workers.

    The workers are forked, so fn and the arrays it reads reach them by
    inheritance; only the items and the results are pickled. Fork is safe here
    because the package starts no thread and keeps BLAS on one. With one worker,
    or where the platform cannot fork, this is plain `map`.
    """
    global _inherited
    items = list(items)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(cpus, len(items))
    if workers <= 1 or not hasattr(os, "fork"):
        yield from map(fn, items)
        return
    # imported here, so an import of the package does not pay for them
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    _inherited = fn
    try:
        with ProcessPoolExecutor(workers, mp_context=get_context("fork")) as pool:
            yield from pool.map(_call_inherited, items)
    finally:
        _inherited = None


@dataclass
class OutcomeBatch:
    """Error cosines of the two transmitted directions, one pair per sample."""

    cos_chi1: np.ndarray
    cos_chi2: np.ndarray

    def write_csv(self, path):
        """Columns (sample, chi1, chi2, cos_chi1, cos_chi2): CRLF rows with
        `%.12g` cells, the bytes `csv.writer` gives for the same cells. Blocks
        of `_DUMP_BLOCK_ROWS` rows are rendered by `ordered_map` and written in
        order, so the bytes do not depend on the worker count."""
        with open(path, "wb") as handle:
            handle.write(_DUMP_HEADER)
            starts = range(0, len(self.cos_chi1), _DUMP_BLOCK_ROWS)
            for block in ordered_map(self._render_block, starts):
                handle.write(block)

    def _render_block(self, start: int) -> bytes:
        stop = min(start + _DUMP_BLOCK_ROWS, len(self.cos_chi1))
        cos_pair = (self.cos_chi1[start:stop], self.cos_chi2[start:stop])
        columns = [np.arccos(np.clip(c, -1.0, 1.0)) for c in cos_pair] + list(cos_pair)
        cells = [None] * (5 * (stop - start))
        cells[0::5] = range(start, stop)
        for k, column in enumerate(columns, start=1):
            cells[k::5] = column.tolist()
        return (_DUMP_ROW * (stop - start)) % tuple(cells)


def sample_outcome_batch(n: int, count: int, seed: int) -> OutcomeBatch:
    """Sample `count` outcome pairs and keep only their error cosines, which do
    not depend on the transmitted axes. They are drawn where `ortho.gain_factor`
    draws its cosines: segments 0 and 2 of `_segments(seed, count)`."""
    cos_1, _, cos_2, _ = _segments(seed, count)
    return OutcomeBatch(sample_error_cosines(n, count, cos_1),
                        sample_error_cosines(n, count, cos_2))


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
