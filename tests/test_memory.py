"""Heap guards for the streamed Monte Carlo path.

numpy reports its array buffers to tracemalloc, so the traced peak counts the
arrays alive at once. Whole-batch (3, count) estimate arrays take 48 B per
sample for each direction pair and fail these bounds.
"""

import tracemalloc

from rydberg_frames.cli import main
from rydberg_frames.ortho import gain_factor
from rydberg_frames.povm_so4 import sample_outcome_batch

COUNT = 600000
SLACK = 16 * 2**20  # the blocks in flight and the interpreter's own allocations


def traced_peak(fn, *args):
    """Peak bytes traced while fn(*args) runs, and its result."""
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result


def test_outcome_batch_keeps_16_bytes_per_sample():
    peak, batch = traced_peak(sample_outcome_batch, 10, COUNT, 1)
    assert batch.cos_chi1.size == COUNT
    assert peak <= 16 * COUNT + SLACK


def test_gain_factor_keeps_48_bytes_per_sample():
    # before and after (16 B), np.cov's centered copy of them (16 B) and headroom
    peak, report = traced_peak(gain_factor, 10, COUNT, 1)
    assert report.samples == COUNT
    assert peak <= 48 * COUNT + SLACK


def test_so4_command_keeps_24_bytes_per_sample(tmp_path):
    # the two cosine arrays (16 B) and the one temporary of `std` (8 B): the
    # per-sample errors take the cosines' buffer. A copy of them (32 B per
    # sample) exceeds this bound, so the slack is kept below 8 B per sample.
    out = str(tmp_path / "so4.csv")
    main(["so4", "--samples", "1000", "--out", out])  # imports and caches first
    peak, status = traced_peak(main, ["so4", "--samples", str(COUNT), "--out", out])
    assert status == 0
    assert peak <= 24 * COUNT + 2 * 2**20
