"""The worker count of `ordered_map` changes no output byte.

Where these tests fork real workers they ask for two, and they skip on a
machine with fewer usable CPUs, so no test starts more workers than CPUs.
"""

import concurrent.futures
import os
from concurrent.futures.process import BrokenProcessPool

import pytest

from rydberg_frames import ortho, povm_so4
from rydberg_frames.cli import main
from rydberg_frames.povm_so4 import _DUMP_BLOCK_ROWS, ordered_map, sample_outcome_batch

import stream_oracle

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
    batch = sample_outcome_batch(6, 2 * _DUMP_BLOCK_ROWS + 3, seed=17)
    dumps = []
    for cpus in (1, 2):
        set_cpus(monkeypatch, cpus)
        path = tmp_path / f"cpus{cpus}.csv"
        batch.write_csv(path)
        dumps.append(path.read_bytes())
    assert dumps[0] == dumps[1]
    assert executors == [2]


@needs_two_cpus
def test_dump_cycles_through_the_ring(tmp_path, monkeypatch, executors):
    # 21 blocks of 1000 rows, each rendered in chunks of 300, on two workers:
    # four slots, so every slot is written five or six times
    monkeypatch.setattr(povm_so4, "_DUMP_BLOCK_ROWS", 1000)
    monkeypatch.setattr(povm_so4, "_CHUNK_ROWS", 300)
    set_cpus(monkeypatch, 2)
    assert povm_so4._window(21) == 4
    batch = sample_outcome_batch(6, 20 * 1000 + 7, seed=23)
    batch.write_csv(tmp_path / "ring.csv")
    stream_oracle.csv_writer_dump(stream_oracle.one_shot_cosines(6, 20 * 1000 + 7, seed=23),
                                  tmp_path / "oracle.csv")
    assert (tmp_path / "ring.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
    assert executors == [2]
    assert vars(batch).keys() == {"n", "count", "seed"}  # the ring is not kept


@needs_two_cpus
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_so4_report_does_not_depend_on_dump_or_cpus(tmp_path, monkeypatch, executors, fmt):
    # the dump's blocks are reduced in the workers and the others in-process:
    # the same partials, combined in the same order, over three blocks
    reports = []
    for cpus in (1, 2):
        set_cpus(monkeypatch, cpus)
        for dump in (False, True):
            path = tmp_path / f"cpus{cpus}_{dump}.{fmt}"
            argv = ["so4", "--samples", str(2 * _DUMP_BLOCK_ROWS + 3), "--seed", "4",
                    "--format", fmt, "--out", str(path)]
            extra = ["--dump-samples", str(tmp_path / "dump.csv")] if dump else []
            assert main(argv + extra) == 0
            reports.append(path.read_bytes())
    assert reports[1:] == reports[:1] * 3
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


def _die(*args):
    os._exit(1)


@needs_two_cpus
@pytest.mark.parametrize("argv", [["so4", "--samples", str(_DUMP_BLOCK_ROWS + 1)],
                                  ["ortho", "--n-list", "5,10", "--samples", "100000"]],
                         ids=["so4", "ortho"])
def test_dead_worker_exits_3_in_one_line(tmp_path, monkeypatch, capsys, argv):
    # a worker killed mid-run (the OOM killer, a signal) is neither a tolerance
    # failure nor a traceback, and leaves no partial dump
    set_cpus(monkeypatch, 2)
    monkeypatch.setattr(povm_so4, "_so4_block", _die)
    monkeypatch.setattr(ortho, "gain_factor", _die)
    dump = tmp_path / "dump.csv"
    extra = ["--dump-samples", str(dump)] if argv[0] == "so4" else []
    assert main(argv + extra + ["--out", str(tmp_path / "report.csv")]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "worker process died" in err
    assert not dump.exists() and not (tmp_path / "report.csv").exists()


def _fail_second_block(monkeypatch):
    """No fork: the dump's second block fails after the first is written."""
    set_cpus(monkeypatch, 1)
    real = povm_so4._so4_block

    def render(n, count, seed, ring, start):
        if start:
            raise OSError(28, "No space left on device")
        return real(n, count, seed, ring, start)

    monkeypatch.setattr(povm_so4, "_so4_block", render)


@pytest.mark.parametrize("link", [False, True], ids=["file", "symlink"])
def test_failed_dump_is_removed(tmp_path, monkeypatch, link):
    _fail_second_block(monkeypatch)
    batch = sample_outcome_batch(6, _DUMP_BLOCK_ROWS + 1, seed=1)
    path = target = tmp_path / "dump.csv"
    if link:  # a dump written through a link is left in place, and the link with it
        target = tmp_path / "target.csv"
        target.touch()
        path.symlink_to(target)
    with pytest.raises(OSError, match="No space left"):
        batch.write_csv(path)
    assert path.is_symlink() == link
    assert target.exists() == link


def test_failed_dump_write_is_a_usage_error(tmp_path, monkeypatch, capsys):
    _fail_second_block(monkeypatch)
    dump = tmp_path / "dump.csv"
    assert main(["so4", "--samples", str(_DUMP_BLOCK_ROWS + 1), "--dump-samples", str(dump),
                 "--out", str(tmp_path / "report.csv")]) == 2
    assert capsys.readouterr().err.count("\n") == 1
    assert not dump.exists()


class StubExecutor:
    """Stands in for the process pool: records its size, runs each item when it
    is submitted, and fails if more than two items per worker are in flight."""

    def __init__(self, built, max_workers, mp_context):
        built.append((max_workers, mp_context.get_start_method()))
        self.window = 2 * max_workers
        self.outstanding = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, item):
        assert self.outstanding < self.window
        self.outstanding += 1
        return StubFuture(self, fn(item))


class StubFuture:
    def __init__(self, pool, value):
        self.pool, self.value = pool, value

    def result(self):
        self.pool.outstanding -= 1
        return self.value


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


def test_item_k_plus_window_waits_for_result_k(monkeypatch, stub_executors):
    set_cpus(monkeypatch, 2)
    log = []

    def run(item):
        log.append(("run", item))
        return item

    for result in ordered_map(run, range(10)):
        log.append(("take", result))
    assert [entry for entry in log if entry[0] == "take"] == [("take", k) for k in range(10)]
    for k in range(6):  # window 4
        assert log.index(("run", k + 4)) > log.index(("take", k))
    assert stub_executors == [(2, "fork")]


def test_no_fork_maps_in_process(monkeypatch, stub_executors):
    set_cpus(monkeypatch, 4)
    monkeypatch.delattr(os, "fork")
    assert list(ordered_map(str, range(3))) == ["0", "1", "2"]
    assert stub_executors == []
