"""Heap guards for the streamed Monte Carlo path and the largest shell state.

numpy reports its array buffers to tracemalloc, as Python reports its float
and list objects, so the traced peak counts the arrays and rows alive at once.
Neither `so4` nor `ortho` holds an array of the whole batch: both draw and
reduce blocks of 65,536 samples, so their heaps do not grow with the sample
count. Whole-batch arrays, 8 B per sample for each per-sample value, fail
these bounds.
"""

import tracemalloc

import pytest

from rydberg_frames.angmom import MAX_N
from rydberg_frames.cli import main
from rydberg_frames.ortho import gain_factor
from rydberg_frames.povm_so3 import alice_two_axis_state
from rydberg_frames.povm_so4 import sample_outcome_batch
from rydberg_frames.states import _row_weights

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
    # the batch is a record; its moments are drawn and reduced block by block
    batch = sample_outcome_batch(10, COUNT, 1)
    peak, (mean, m2) = traced_peak(batch.error_moments)
    assert batch.count == COUNT and mean.shape == m2.shape == (2,)
    assert peak <= 16 * COUNT + SLACK


@pytest.mark.parametrize("samples", [COUNT, 2 * 10**6])
def test_gain_factor_heap_does_not_grow_with_samples(samples):
    # one buffer set of 5 doubles per block row (2.6 MB), the block's cosines
    # (1 MB) and one temporary of its reduction, 4.7 MiB; whole errors before
    # and after take 16 B per sample, 32 MB at the larger count
    peak, report = traced_peak(gain_factor, 10, samples, 1)
    assert report.samples == samples
    assert peak <= 8 * 2**20


def test_so4_command_keeps_24_bytes_per_sample(tmp_path):
    # the bound of whole cosine arrays (16 B) and one temporary of `std` (8 B),
    # with slack below 8 B per sample; the blocks stay far below it
    out = str(tmp_path / "so4.csv")
    main(["so4", "--samples", "1000", "--out", out])  # imports and caches first
    peak, status = traced_peak(main, ["so4", "--samples", str(COUNT), "--out", out])
    assert status == 0
    assert peak <= 24 * COUNT + 2 * 2**20


@pytest.mark.parametrize("samples", [COUNT, 2 * 10**6])
def test_so4_command_heap_does_not_grow_with_samples(tmp_path, samples):
    # one block of cosines in flight (1 MB at 65,536 samples) and the report;
    # whole cosine arrays take 16 B per sample, 9.6 MB at the smaller count
    out = str(tmp_path / "so4.csv")
    main(["so4", "--samples", "1000", "--out", out])  # imports and caches first
    peak, status = traced_peak(main, ["so4", "--samples", str(samples), "--out", out])
    assert status == 0
    assert peak <= 4 * 2**20


def test_elliptic_state_at_max_n_keeps_a_few_tables():
    # the n real rows, whose mirrored halves share their float objects, the
    # recurrence's half row and the norm check's temporaries: 0.23 MB at
    # n = 101. An (n, n, n) temporary of a dense coupling (8 MB there) fails
    # this.
    n = MAX_N
    _row_weights(n)  # the cached weights are not part of one state's build
    peak, state = traced_peak(alice_two_axis_state, n, 0.3)
    assert state.n == n
    assert peak <= 4 * n * (2 * n - 1) * 16
