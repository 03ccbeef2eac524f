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
order: no output byte depends on the CPUs. The dump's `%.12g` text is rendered
in numpy, in fixed fields with no string per cell (`_cell_slots`).

The diagnostic, that rotated maximal-K projectors alone do not resolve the
identity, is a Haar integral of D-functions and is given in closed form
(`stark_block_constants`). The tests integrate it, and the completeness of the
product POVM, on explicit grids as oracles.
"""

from __future__ import annotations

import contextlib
import math
import os
import stat
from dataclasses import dataclass

import numpy as np

from .states import extreme_stark

# The Monte Carlo path draws, reduces and renders this many samples at a time,
# so no (3, count) array and no Python floats of the whole batch exist at once.
_DUMP_BLOCK_ROWS = 65536
_DUMP_HEADER = b"sample,chi1,chi2,cos_chi1,cos_chi2\r\n"

# The dump's text is assembled in 2-byte slots, the first character in the low
# byte, so every pair of characters is one table lookup. A NUL byte is no
# character; a rendered block drops them. A cell takes 10 slots: "," and its
# sign, the leading digit and ".", seven pairs of decimals, the last decimal and
# a NUL. The widest `%.12g` cell, "-1.23456789012e-308", fits its 19 bytes.
_SLOT = np.dtype("<u2")
_CELL_SLOTS = 10
_CELL_BYTES = 2 * _CELL_SLOTS - 1


def _digit_pairs() -> np.ndarray:
    """The slots of the digit pairs "00" .. "99": entry p is the pair p with its
    trailing zeros as NUL, for the last pair of a cell, and entry 100 + p is the
    pair p whole."""
    whole = [(48 + p // 10) | (48 + p % 10) << 8 for p in range(100)]
    trimmed = [w if p % 10 else 48 + p // 10 if p else 0 for p, w in enumerate(whole)]
    return np.array(trimmed + whole, _SLOT)


_DIGIT_PAIRS = _digit_pairs()
# exact powers of ten, by the decade index i = e + 4 of a cell 10^e <= |x| < 10^(e+1)
_MANTISSA_SCALE = np.array([float(10**k) for k in range(15, 10, -1)])  # 10^(11 - e)
_DECIMAL_SHIFT = np.array([float(10**k) for k in range(5)])  # 10^(4 + e)


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


def _cell_slots(cells: np.ndarray, out: np.ndarray) -> None:
    """Write "," and the `%.12g` text of each double of `cells` into its
    `_CELL_SLOTS` slots, out[..., :], with no string per cell.

    The fast path takes 1e-4 <= |x| < 10, where `%.12g` prints 15 decimals or
    fewer, with no exponent. The decade e of 10^e <= |x| < 10^(e+1) is found by
    comparison with the doubles 1e-3 .. 1, each just above its power of ten.
    y = |x| 10^(11-e) is one rounding of the exact product, off by at most half
    an ulp of y < 2^40, 6.1e-5, so where y lies more than 2e-4 from a
    half-integer and q = rint(y) < 10^12, q is the correctly rounded 12-digit
    mantissa, and Q = q 10^(4+e) is |x| in units of 10^-15, exact in an int64.
    Its digits are taken by `//` with scalars, and the trailing zeros of the
    decimals, and a bare ".", become NUL. `%` formats every other cell: a
    rounding too close to call, a carry into the next decade, 0, subnormals,
    nan, +-inf and |x| outside the range.
    """
    a = np.abs(cells)
    fast = (a >= 1e-4) & (a < 10.0)
    np.copyto(a, 1.0, where=~fast)  # so no step below meets nan, inf or an overflow
    decade = (a >= 1e-3).astype(np.intp)
    for bound in (1e-2, 1e-1, 1.0):
        decade += a >= bound
    y = a * _MANTISSA_SCALE.take(decade)
    q = np.rint(y)
    fast &= (np.abs(y - q) < 0.5 - 2e-4) & (q < 1e12)
    decimals = (q * _DECIMAL_SHIFT.take(decade)).astype(np.int64)
    lead = decimals // 10**15
    decimals -= lead * 10**15
    out[..., 0] = 44 | np.signbit(cells) * (45 << 8)  # "," and "-"
    out[..., 1] = (48 + lead) | (decimals != 0) * (46 << 8)  # the digit and "."
    for slot, unit in enumerate((10**13, 10**11, 10**9, 10**7, 10**5, 10**3, 10), start=2):
        pair = decimals // unit
        decimals -= pair * unit
        # the remainder is the decimals after the pair: none left, trim its zeros
        pair += (decimals != 0) * 100
        out[..., slot] = _DIGIT_PAIRS.take(pair)
    out[..., 9] = _DIGIT_PAIRS.take(10 * decimals)
    slow = np.nonzero(~fast)
    if slow[0].size:
        text = b"".join(b"," + (b"%.12g" % x).ljust(_CELL_BYTES, b"\0")
                        for x in cells[slow].tolist())
        out[slow] = np.frombuffer(text, _SLOT).reshape(-1, _CELL_SLOTS)


def _render_rows(first: int, cells: np.ndarray) -> bytes:
    """Dump rows of the sample indices first, first + 1, ... and the four cells
    of each row of the (rows, 4) `cells`: the bytes of
    `b"%d,%.12g,%.12g,%.12g,%.12g\\r\\n"` row by row.

    The rows are laid out in one (rows, width) block of slots and compacted by
    dropping its NUL bytes."""
    rows = len(cells)
    index_slots = (len(str(first + rows - 1)) + 1) // 2
    block = np.empty((rows, index_slots + 4 * _CELL_SLOTS + 1), _SLOT)
    index = np.arange(first, first + rows)
    for slot in reversed(range(index_slots)):
        block[:, slot] = _DIGIT_PAIRS.take(100 + index % 100)
        index //= 100
    # the indices ascend, so the rows below 10^k are those with no digit
    # before the kth from the right
    chars = block.view(np.uint8)
    for k in range(1, 2 * index_slots):
        chars[: max(0, 10**k - first), 2 * index_slots - 1 - k] = 0
    _cell_slots(cells, block[:, index_slots:-1].reshape(rows, 4, _CELL_SLOTS))
    block[:, -1] = 13 | 10 << 8  # CRLF
    return block.tobytes().translate(None, b"\0")


@dataclass
class OutcomeBatch:
    """Error cosines of the two transmitted directions, one pair per sample."""

    cos_chi1: np.ndarray
    cos_chi2: np.ndarray

    def write_csv(self, path):
        """Columns (sample, chi1, chi2, cos_chi1, cos_chi2): CRLF rows with
        `%.12g` cells, the bytes `csv.writer` gives for the same cells. Blocks
        of `_DUMP_BLOCK_ROWS` rows are rendered by `ordered_map` and written in
        order, so the bytes do not depend on the worker count. On any exception,
        a dead worker or a failed write among them, a partly written regular
        file is removed before the exception goes on."""
        handle = open(path, "wb")
        try:
            with handle:
                handle.write(_DUMP_HEADER)
                starts = range(0, len(self.cos_chi1), _DUMP_BLOCK_ROWS)
                for block in ordered_map(self._render_block, starts):
                    handle.write(block)
        except BaseException:
            # never a device, a pipe or a link, as in `--dump-samples /dev/stdout`
            with contextlib.suppress(OSError):
                if stat.S_ISREG(os.lstat(path).st_mode):
                    os.remove(path)
            raise

    def _render_block(self, start: int) -> bytes:
        stop = min(start + _DUMP_BLOCK_ROWS, len(self.cos_chi1))
        cells = np.empty((stop - start, 4))
        for k, cos_chi in enumerate((self.cos_chi1[start:stop], self.cos_chi2[start:stop])):
            cells[:, k] = np.arccos(np.clip(cos_chi, -1.0, 1.0))
            cells[:, k + 2] = cos_chi
        return _render_rows(start, cells)


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
