"""The worker count of `ordered_map` changes no output byte.

Where these tests fork real workers they ask for two, and they skip on a
machine with fewer usable CPUs, so no test starts more workers than CPUs.
"""

import concurrent.futures
import os
from concurrent.futures.process import BrokenProcessPool

import pytest

from rydberg_frames import povm_so4
from rydberg_frames.cli import main
from rydberg_frames.geometry import X_AXIS
from rydberg_frames.povm_so4 import _DUMP_BLOCK_ROWS, ordered_map, sample_outcome_batch

from rotation_oracle import unit

REAL_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def set_cpus(monkeypatch, count):
    """Make `ordered_map` see `count` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


@pytest.fixture
def executors(monkeypatch):
    """The worker counts of the process pools `ordered_map` builds."""
    built = []
    real = concurrent.futures.ProcessPoolExecutor

    def counting(max_workers, **kwargs):
        built.append(max_workers)
        return real(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counting)
    return built


needs_two_cpus = pytest.mark.skipif(REAL_CPUS < 2, reason="forks two workers")


@needs_two_cpus
def test_dump_bytes_do_not_depend_on_cpus(tmp_path, monkeypatch, executors):
    batch = sample_outcome_batch(6, X_AXIS, unit(0.3, -0.5, 0.8), 2 * _DUMP_BLOCK_ROWS + 3, seed=17)
    dumps = []
    for cpus in (1, 2):
        set_cpus(monkeypatch, cpus)
        path = tmp_path / f"cpus{cpus}.csv"
        batch.write_csv(path)
        dumps.append(path.read_bytes())
    assert dumps[0] == dumps[1]
    assert executors == [2]


@needs_two_cpus
def test_ortho_report_does_not_depend_on_cpus(tmp_path, monkeypatch, executors):
    reports = []
    for cpus in (1, 2):
        set_cpus(monkeypatch, cpus)
        path = tmp_path / f"cpus{cpus}.json"
        argv = ["ortho", "--n-list", "5,10", "--samples", "100000", "--seed", "2",
                "--format", "json", "--out", str(path)]
        assert main(argv) == 0
        reports.append(path.read_bytes())
    assert reports[0] == reports[1]
    assert executors == [2]


@needs_two_cpus
def test_dead_worker_raises(monkeypatch):
    set_cpus(monkeypatch, 2)
    with pytest.raises(BrokenProcessPool):
        list(ordered_map(lambda item: os._exit(1), [0, 1]))


class StubExecutor:
    """Stands in for the process pool: records its size and maps in-process."""

    def __init__(self, built, max_workers, mp_context):
        built.append((max_workers, mp_context.get_start_method()))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.fixture
def stub_executors(monkeypatch):
    built = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda max_workers, mp_context: StubExecutor(built, max_workers, mp_context))
    return built


@pytest.mark.parametrize("cpus, items, workers", [(64, 4, 4), (3, 10, 3), (2, 2, 2),
                                                  (64, 1, None), (1, 5, None), (4, 0, None)])
def test_worker_count_is_min_of_cpus_and_items(monkeypatch, stub_executors, cpus, items, workers):
    set_cpus(monkeypatch, cpus)
    assert list(ordered_map(lambda item: 10 * item, range(items))) == [10 * i for i in range(items)]
    assert stub_executors == ([] if workers is None else [(workers, "fork")])
    assert povm_so4._inherited is None


def test_no_fork_maps_in_process(monkeypatch, stub_executors):
    set_cpus(monkeypatch, 4)
    monkeypatch.delattr(os, "fork")
    assert list(ordered_map(str, range(3))) == ["0", "1", "2"]
    assert stub_executors == []
