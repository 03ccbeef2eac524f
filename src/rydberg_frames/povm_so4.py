"""Product SO(4) measurement: closed forms, outcome sampling, a diagnostic.

The measurement factorizes into one covariant SO(3) POVM per spin-j factor
(j = (n-1)/2), so each transmitted direction is estimated independently with
solid-angle error density (2j+1)/(4 pi) cos^{2(n-1)}(chi/2) about the true
direction. That density integrates to one and has <cos chi> = (n-1)/(n+1),
hence a per-direction mean square error of exactly 1/(n+1) for every n.

The density is the same about every axis, so no result depends on which
axes are sent: `so4` and `ortho` draw the same two error cosines
(`_block_cosines`), and `ortho` adds the two azimuths, in [-pi, pi), from
the segments between them. Both draw in blocks of `_DUMP_BLOCK_ROWS`
samples, so neither one's memory grows with the sample count.
All sampling is rejection-free through the inverse CDF on s = sin^2(chi/2)
and uses numpy's counter-based 64-bit Philox generator with an explicit seed
in every API. `_block_streams` positions generators anywhere in the seed's
stream by Philox skip-ahead (Salmon et al., SC11, 2011), so the bits are those
of one pass over the stream however it is split. Each block is drawn, reduced
(`_moments`) and, for `so4`'s dump, rendered where it runs, and the blocks'
partial moments are combined in order (`_combined`). `ordered_map` runs the
dump's blocks and `ortho`'s shells on forked workers, one per usable CPU, with
at most two items per worker in flight, and returns the results in order: no
output byte depends on the CPUs.
The dump's `%.12g` text is rendered in numpy, in fixed fields of 4-byte words
with no string per cell: the decimals go as four 4-digit groups, one lookup
each in a table built on first use (`_cell_words`). The workers render each
block into a slot of a ring in shared memory and return only its byte count
and partial moments, so no rendered byte is pickled.

The tests check the completeness of the product POVM on explicit grids, and
the diagnostic that rotated maximal-K projectors alone do not resolve the
identity: its closed-form block constants live with them
(`tests/stark_blocks.py`), since no command computes them.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import stat

import numpy as np

# The Monte Carlo path draws, reduces and renders this many samples at a time,
# so no array and no Python floats of the whole batch exist at once.
_DUMP_BLOCK_ROWS = 65536
_DUMP_HEADER = b"sample,chi1,chi2,cos_chi1,cos_chi2\r\n"

# The dump's text is assembled in 4-byte words, the first character in the low
# byte, so every group of four digits is one table lookup. A NUL byte is no
# character; a rendered block drops them. A cell takes 5 words: "," and its
# sign, the leading digit and "."; then four groups of decimals, the 15 of a
# `%.12g` cell and a 16th that is always 0, so always a NUL. The widest `%.12g`
# cell, "-1.23456789012e-308", fits its 19 bytes.
_WORD = np.dtype("<u4")
_CELL_WORDS = 5
_CELL_BYTES = 4 * _CELL_WORDS - 1
# A block is rendered this many rows at a time, so its temporaries stay in cache.
_CHUNK_ROWS = 4096


@functools.cache
def _digit_groups() -> np.ndarray:
    """The words of the digit groups "0000" .. "9999", built on first use: entry
    g is the group g with its trailing zeros as NUL, for the last group of a
    cell, and entry 10000 + g is the group g whole."""
    g = np.arange(10000, dtype=np.uint32)
    whole = np.zeros_like(g)
    trimmed = np.zeros_like(g)
    for k in range(4):  # the kth character from the left, in byte k
        char = (48 + g // 10 ** (3 - k) % 10) << 8 * k
        whole |= char
        trimmed |= char * (g % 10 ** (4 - k) != 0)
    table = np.concatenate([trimmed, whole])
    table.flags.writeable = False  # one array serves every caller
    return table


# exact powers of ten, by the decade index i = e + 4 of a cell 10^e <= |x| < 10^(e+1)
_MANTISSA_SCALE = np.array([float(10**k) for k in range(15, 10, -1)])  # 10^(11 - e)
_DECIMAL_SHIFT = np.array([float(10**k) for k in range(1, 6)])  # 10^(5 + e)


def philox_rng(seed: int) -> np.random.Generator:
    """Counter-based 64-bit generator. A command draws all its samples from the
    one stream of its seed; `_stream_at` positions generators in that stream
    by `advance`, so blocks are drawn without the doubles before them."""
    return np.random.Generator(np.random.Philox(seed))


def _stream_at(seed: int, offset: int) -> np.random.Generator:
    """A generator positioned at double `offset` of the seed's stream. Each
    Philox counter step yields four doubles, so it advances by the whole steps
    and discards the remainder."""
    rng = philox_rng(seed)
    rng.bit_generator.advance(offset // 4)
    rng.random(offset % 4)
    return rng


def _block_streams(seed: int, count: int, start: int, segments) -> list:
    """Generators at the block of samples from `start` in each of `segments`
    of `count` doubles: the cosines about the first axis (0), their azimuths
    (1), then the same two about the second (2, 3), at k * count + start."""
    return [_stream_at(seed, k * count + start) for k in segments]


def so4_infidelity(n: int) -> float:
    """Per-axis mean square error 1/(n+1), i.e. <cos omega> = (n-1)/(n+1)."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    return 1.0 / (n + 1.0)


def sample_error_cosines(n: int, count: int, rng: np.random.Generator,
                         out: np.ndarray | None = None) -> np.ndarray:
    """cos(chi) draws from the density ~ cos^{2(n-1)}(chi/2) on the sphere,
    into `out` (a fresh array if None).

    Inverse CDF on s = sin^2(chi/2): the density is n (1-s)^(n-1) ds, so
    s = 1 - (1-U)^(1/n) with U uniform. Runs in place in the draw's buffer,
    with the ufuncs and so the bits of 1.0 - 2.0 * (1.0 - (1.0 - U) ** (1.0 / n)).
    """
    out = rng.random(count, out=out)
    np.subtract(1.0, out, out=out)
    out **= 1.0 / n
    np.subtract(1.0, out, out=out)
    out *= 2.0
    return np.subtract(1.0, out, out=out)


_inherited = None  # the function the workers of `ordered_map` inherit by fork


def _call_inherited(item):
    return _inherited(item)


def _window(count: int) -> int:
    """How many of `count` items `ordered_map` keeps in flight: two per worker,
    on min(usable CPUs, count) workers, or one where it is plain `map`."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(cpus, count)
    return 2 * workers if workers > 1 and hasattr(os, "fork") else 1


def ordered_map(fn, items):
    """Yield fn(item) for each item, in order, on min(usable CPUs, items) workers.

    At most window = `_window(len(items))` items are in flight, on window // 2
    workers: item k + window is submitted only after the consumer has taken
    result k, so results never pile up, and whatever result k names (a slot of
    `write_csv`'s ring, sized by the same `_window`) is free for item
    k + window. The workers are forked, so fn and the arrays it reads reach
    them by inheritance; only the items and the results are pickled. Fork is
    safe here because the package starts no thread and keeps BLAS on one.
    With one worker, or where the platform cannot fork, this is plain `map`.
    """
    global _inherited
    items = list(items)
    window = _window(len(items))
    if window == 1:
        yield from map(fn, items)
        return
    # imported here, so an import of the package does not pay for them
    from collections import deque
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    _inherited = fn
    try:
        with ProcessPoolExecutor(window // 2, mp_context=get_context("fork")) as pool:
            pending = deque(pool.submit(_call_inherited, item) for item in items[:window])
            for item in items[window:]:
                yield pending.popleft().result()
                pending.append(pool.submit(_call_inherited, item))
            while pending:
                yield pending.popleft().result()
    finally:
        _inherited = None


def _cell_words(cells: np.ndarray, out: np.ndarray) -> None:
    """Write "," and the `%.12g` text of each double of `cells` into its
    `_CELL_WORDS` words, out[..., :], with no string per cell.

    The fast path takes 1e-4 <= |x| < 10, where `%.12g` prints 15 decimals or
    fewer, with no exponent. The decade e of 10^e <= |x| < 10^(e+1) is found by
    comparison with the doubles 1e-3 .. 1, each just above its power of ten.
    y = |x| 10^(11-e) is one rounding of the exact product, off by at most half
    an ulp of y < 2^40, 6.1e-5, so where y lies more than 2e-4 from a
    half-integer and q = rint(y) < 10^12, q is the correctly rounded 12-digit
    mantissa. Q = q 10^(5+e), |x| in units of 10^-16, is exact in a double
    (q 5^(5+e) < 2^52), and so is its split Q = 10^8 top + low: Q is a
    multiple of 10, so Q / 10^8 lies at least 10^-7 below the next integer,
    more than half an ulp of top < 10^9, and floor gives top. The leading digit
    is top // 10^8, and the 16 decimals, the last always 0, are four groups of
    four digits, one table lookup each (`_digit_groups`); the trailing zeros of
    the decimals, and a bare ".", become NUL. `%` formats every other cell: a
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
    q *= _DECIMAL_SHIFT.take(decade)
    top = np.floor(q / 1e8)
    low = (q - top * 1e8).astype(np.uint32)  # decimals 9 .. 16
    top = top.astype(np.uint32)
    lead = top // 10**8
    top -= lead * np.uint32(10**8)  # decimals 1 .. 8
    first = top // 10**4
    second = top - first * np.uint32(10**4)
    third = low // 10**4
    fourth = low - third * np.uint32(10**4)
    # a group is whole (+10000) where a nonzero decimal follows it
    whole = np.uint32(10000)
    third += (fourth != 0) * whole
    second += (third != 0) * whole
    first += (second != 0) * whole
    groups = _digit_groups()
    for word, group in enumerate((first, second, third, fourth), start=1):
        out[..., word] = groups.take(group)
    # ",", the sign, the leading digit, and "." where any decimal is not 0
    lead <<= 16
    lead |= np.uint32(44 | 48 << 16)
    lead |= np.signbit(cells) * np.uint32(45 << 8)
    lead |= (first != 0) * np.uint32(46 << 24)
    out[..., 0] = lead
    slow = np.nonzero(~fast)
    if slow[0].size:
        text = b"".join(b"," + (b"%.12g" % x).ljust(_CELL_BYTES, b"\0")
                        for x in cells[slow].tolist())
        out[slow] = np.frombuffer(text, _WORD).reshape(-1, _CELL_WORDS)


def _render_rows(first: int, cells: np.ndarray) -> bytes:
    """Dump rows of the sample indices first, first + 1, ... and the four cells
    of each row of the (rows, 4) `cells`: the bytes of
    `b"%d,%.12g,%.12g,%.12g,%.12g\\r\\n"` row by row.

    The rows are laid out in one (rows, width) block of words and compacted by
    dropping its NUL bytes."""
    rows = len(cells)
    index_words = (len(str(first + rows - 1)) + 3) // 4
    block = np.empty((rows, index_words + 4 * _CELL_WORDS + 1), _WORD)
    groups = _digit_groups()
    index = np.arange(first, first + rows)
    for word in reversed(range(index_words)):
        index, group = np.divmod(index, 10000)
        block[:, word] = groups.take(group + 10000)
    # the indices ascend, so the rows below 10^k are those with no digit
    # before the kth from the right
    chars = block.view(np.uint8)
    for k in range(1, 4 * index_words):
        chars[: max(0, 10**k - first), 4 * index_words - 1 - k] = 0
    _cell_words(cells, block[:, index_words:-1].reshape(rows, 4, _CELL_WORDS))
    block[:, -1] = 13 | 10 << 8  # CRLF
    return block.tobytes().translate(None, b"\0")


def _block_cosines(n: int, count: int, seed: int, start: int) -> np.ndarray:
    """The (2, rows) error cosines of the block of samples from `start`, at most
    `_DUMP_BLOCK_ROWS` of `count`: row 0 from segment 0 of the seed's stream and
    row 1 from segment 2, where `ortho` draws its cosines about x and y."""
    rows = min(_DUMP_BLOCK_ROWS, count - start)
    cos_chi = np.empty((2, rows))
    for row, rng in zip(cos_chi, _block_streams(seed, count, start, (0, 2))):
        sample_error_cosines(n, rows, rng, row)
    return cos_chi


def _moments(errors: np.ndarray) -> tuple:
    """(rows, mean, M2) of the (2, rows) `errors`: each row's mean, and the
    (2, 2) sums of the products of the deviations, their squares left in
    `errors`. These are the plain `add.reduce` sums of numpy's `mean` and `std`,
    so one row gives their bits, and no BLAS call starts a BLAS thread."""
    rows = errors.shape[1]
    mean = np.add.reduce(errors, axis=1) / rows
    errors -= mean[:, None]
    cross = np.add.reduce(errors[0] * errors[1])
    m2 = np.diag(np.add.reduce(np.square(errors, out=errors), axis=1))
    m2[0, 1] = m2[1, 0] = cross
    return rows, mean, m2


def _so4_block(n: int, count: int, seed: int, ring: np.ndarray | None, start: int):
    """Draw the block of samples from `start`, render its dump rows into its
    slot of `ring` unless `ring` is None, `_CHUNK_ROWS` at a time so their
    temporaries stay in cache, and return the bytes rendered and the `_moments`
    of the errors 0.5 * (1.0 - cos_chi), formed in the cosines' buffer."""
    cos_chi = _block_cosines(n, count, seed, start)
    rows = cos_chi.shape[1]
    size = 0
    if ring is not None:
        slot = ring[start // _DUMP_BLOCK_ROWS % len(ring)]
        for first in range(0, rows, _CHUNK_ROWS):
            chunk = cos_chi[:, first : first + _CHUNK_ROWS]
            cells = np.empty((chunk.shape[1], 4))
            for k in range(2):
                cells[:, k] = np.arccos(np.clip(chunk[k], -1.0, 1.0))
                cells[:, k + 2] = chunk[k]
            text = _render_rows(start + first, cells)
            slot[size : size + len(text)] = np.frombuffer(text, np.uint8)
            size += len(text)
    errors = np.subtract(1.0, cos_chi, out=cos_chi)
    errors *= 0.5
    return size, *_moments(errors)


def _combined(partials) -> tuple:
    """(mean, M2) of all samples of two rows from the `_moments` of each
    block, combined in block order by the pairwise update of Chan, Golub &
    LeVeque (Am. Stat. 37, 242 (1983)). M2 is the (2, 2) co-moment."""
    total, mean, m2 = 0, np.full(2, math.nan), np.zeros((2, 2))  # no samples, no mean
    for rows, block_mean, block_m2 in partials:
        if total:
            delta = block_mean - mean
            mean = mean + delta * (rows / (total + rows))
            m2 = m2 + block_m2 + (np.multiply.outer(delta, delta)
                                  * (total * rows / (total + rows)))
        else:
            mean, m2 = block_mean, block_m2
        total += rows
    return mean, m2


class OutcomeBatch:
    """`count` samples of shell n from the seed's stream, one pair of error
    cosines each, as a record: every block of `_DUMP_BLOCK_ROWS` samples is
    drawn where it is reduced and rendered (`_so4_block`), so no array of the
    whole batch exists."""

    def __init__(self, n: int, count: int, seed: int):
        self.n, self.count, self.seed = n, count, seed

    def error_moments(self) -> tuple:
        """Per-axis (mean, M2) of the errors 0.5 * (1 - cos chi), the blocks
        drawn and reduced one at a time in this process."""
        blocks = map(functools.partial(_so4_block, self.n, self.count, self.seed, None),
                     range(0, self.count, _DUMP_BLOCK_ROWS))
        mean, m2 = _combined(partial for _, *partial in blocks)
        return mean, m2.diagonal()

    def write_csv(self, path) -> tuple:
        """Write the outcome dump, columns (sample, chi1, chi2, cos_chi1,
        cos_chi2): CRLF rows with `%.12g` cells, the bytes `csv.writer` gives
        for the same cells; return `error_moments()`, reduced on the way.

        `ordered_map` runs `_so4_block` on the blocks, block k rendered into
        slot k mod window of a ring in one anonymous shared mapping made
        before the fork, where window is `_window(blocks)`, the number of
        blocks it keeps in flight. A worker draws its block and returns only
        its byte count and partial moments, and the blocks are written from
        their slots in order: no rendered byte is pickled, the ring holds at
        most window blocks, and no byte depends on the worker count. On any
        exception, a dead worker or a failed write among them, a partly
        written regular file is removed before the exception goes on."""
        import mmap  # imported here, so an import of the package does not pay for it

        handle = open(path, "wb")
        try:
            with handle:
                handle.write(_DUMP_HEADER)
                starts = range(0, self.count, _DUMP_BLOCK_ROWS)
                window = _window(len(starts))
                # no row is longer than its index, four cells and CRLF
                slot = _DUMP_BLOCK_ROWS * (len(str(self.count)) + 4 * (_CELL_BYTES + 1) + 2)
                ring = np.frombuffer(mmap.mmap(-1, window * slot), np.uint8).reshape(window, slot)
                render = functools.partial(_so4_block, self.n, self.count, self.seed, ring)
                partials = []
                for k, (size, *partial) in enumerate(ordered_map(render, starts)):
                    handle.write(ring[k % window, :size])
                    partials.append(partial)
        except BaseException:
            # never a device, a pipe or a link, as in `--dump-samples /dev/stdout`
            with contextlib.suppress(OSError):
                if stat.S_ISREG(os.lstat(path).st_mode):
                    os.remove(path)
            raise
        mean, m2 = _combined(partials)
        return mean, m2.diagonal()


def sample_outcome_batch(n: int, count: int, seed: int) -> OutcomeBatch:
    """The batch of `count` outcome pairs of shell n from the seed's stream.
    Nothing is drawn here: `OutcomeBatch.error_moments` and `write_csv` draw
    the blocks where they use them."""
    return OutcomeBatch(n, count, seed)
