"""Heap guards for the streamed Monte Carlo path.

numpy reports its array buffers to tracemalloc, so the traced peak counts the
arrays alive at once. Whole-batch (count, 3) estimate arrays take 48 B per
sample for each direction pair and fail these bounds.
"""

import tracemalloc

from rydberg_frames.geometry import X_AXIS, Y_AXIS
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
    peak, batch = traced_peak(sample_outcome_batch, 10, X_AXIS, Y_AXIS, COUNT, 1)
    assert batch.cos_chi1.size == COUNT
    assert peak <= 16 * COUNT + SLACK


def test_gain_factor_keeps_48_bytes_per_sample():
    # before and after (16 B), np.cov's centered copy of them (16 B) and headroom
    peak, report = traced_peak(gain_factor, 10, COUNT, 1)
    assert report.samples == COUNT
    assert peak <= 48 * COUNT + SLACK
