"""End-to-end benchmark of the rydberg-frames CLI, with a traced variant.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/` directory. The loop is closed with one client: one CLI command at a
time, each in a fresh `python3 -m rydberg_frames` process, and a pass runs
the workload's commands in order. Passes repeat until the next one would end
after S seconds (at least two passes). Every command's output is checked by
`gate.py` and must be byte-identical to the first pass's.

With --trace 0 the last stdout line gives the end-to-end metrics, each a
median over the passes. With --trace 1 traced passes, where `tracer.py` runs
each command, alternate with untraced ones, and the line gives the per-layer
metrics of `layers.py`. A fuller record (provenance, per-pass numbers, output
sha256 digests, problems) goes to .perfbench_results/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gate import Expectations, check_command
from layers import MOVES, is_exact, pass_metrics
from workloads import WORKLOADS, commands

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = Path(".perfbench_work") / str(os.getpid())  # one per run, so runs cannot collide
RESULTS = Path(".perfbench_results")

MIN_PASSES = 2
MIN_TRACED_PASSES = 3  # traced, untraced, traced
SETUP_BATCHES = 5  # setup_s is the median of batch means
SETUP_BATCH = 2
HARD_LIMIT_S = 150.0  # no pass may be started that is expected to end later
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Child:
    wall: float
    cpu: float
    rss_mb: float
    exit: int


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_child(argv, err_path: Path) -> Child:
    """Run one process to completion; wall time, CPU time and peak RSS from wait4."""
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                 proc.returncode)


def sha256(path: Path) -> str | None:
    if not path.exists():
        return None
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class Run:
    """One benchmark run: passes, their checks, and the counts of operations."""

    def __init__(self, workload: str, seed: int):
        self.cmds = commands(workload, seed)
        self.expect = Expectations.load(SRC / "rydberg_frames", HERE / "pinned.json")
        self.digests: dict[str, dict] = {}
        self.problems: list[str] = []
        self.unwrapped: set[str] = set()
        self.attempted = 0
        self.failed = 0

    def count(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def setup_probe(self) -> float:
        child = run_child([sys.executable, "-c", "import rydberg_frames.cli"], WORK / "setup.err")
        self.count([] if child.exit == 0 else [f"import failed: {self._stderr('setup')}"])
        return child.wall

    def run_pass(self, index: int, traced: bool) -> dict:
        """Run each command once, in order; check the outputs afterwards."""
        argvs = [cmd.argv(str(WORK / f"{i}.out"), str(WORK / f"{i}.dump.csv"))
                 for i, cmd in enumerate(self.cmds)]
        children = []
        start = time.perf_counter()
        for i, argv in enumerate(argvs):
            if traced:
                argv = [str(HERE / "tracer.py"), "--spans", str(WORK / f"{i}.spans.json"),
                        "--op", f"{index}.{i}", "--"] + argv
            else:
                argv = ["-m", "rydberg_frames"] + argv
            children.append(run_child([sys.executable] + argv, WORK / f"{i}.err"))
        wall = time.perf_counter() - start

        records = [self._check(i, cmd, argv, child, traced)
                   for i, (cmd, argv, child) in enumerate(zip(self.cmds, argvs, children))]
        return {
            "traced": traced,
            "wall_s": wall,
            "cpu_s": sum(c.cpu for c in children),
            "peak_rss_mb": max(c.rss_mb for c in children),
            "commands": [dict(vars(c), slot=cmd.slot) for cmd, c in zip(self.cmds, children)],
            "layers": pass_metrics([r for r in records if r]) if traced else None,
        }

    def _check(self, i: int, cmd, argv, child: Child, traced: bool):
        out, dump = WORK / f"{i}.out", WORK / f"{i}.dump.csv"
        digest = {"out": sha256(out)}
        if cmd.dumps:
            digest["dump"] = sha256(dump)
        first = self.digests.setdefault(cmd.name, digest)
        if first is digest:
            problems = check_command(argv, child.exit, out, dump if cmd.dumps else None,
                                     self.expect)
            if problems and child.exit not in (0, 1):
                problems.append(f"{cmd.name}: stderr: {self._stderr(str(i))}")
        elif digest != first:
            problems = [f"{cmd.name}: output differs from the first pass {digest} != {first}"]
        else:
            problems = []
        record = None
        spans_path = WORK / f"{i}.spans.json"
        if traced and not spans_path.exists():
            problems.append(f"{cmd.name}: the tracer wrote no spans: {self._stderr(str(i))}")
        elif traced:
            record = json.loads(spans_path.read_text())
            spans_path.unlink()
            self.unwrapped.update(record["unwrapped"])
        for path in (out, dump):
            path.unlink(missing_ok=True)
        self.count(problems)
        return record

    def _stderr(self, stem: str) -> str:
        lines = (WORK / f"{stem}.err").read_text(errors="replace").strip().splitlines()
        return " | ".join(lines[-3:])


def loop(run: Run, seconds: float, traced_when, min_passes: int, batches: int):
    """Passes until the next would end after `seconds`, with `batches` batches of
    setup probes spread evenly over that time."""
    start = time.perf_counter()
    passes, setup = [], []
    next_end = 0.0
    while True:
        while len(setup) < min(batches, math.ceil(batches * next_end / seconds) or 1):
            setup.append(statistics.mean(run.setup_probe() for _ in range(SETUP_BATCH)))
        passes.append(run.run_pass(len(passes), traced_when(len(passes))))
        elapsed = time.perf_counter() - start
        next_end = elapsed + statistics.median(p["wall_s"] for p in passes)
        if next_end > HARD_LIMIT_S or (len(passes) >= min_passes and next_end > seconds):
            break
    while len(setup) < batches:
        setup.append(statistics.mean(run.setup_probe() for _ in range(SETUP_BATCH)))
    return passes, setup


def timed_metrics(run: Run, seconds: float) -> tuple[dict, dict]:
    passes, setup = loop(run, seconds, lambda i: False, MIN_PASSES, SETUP_BATCHES)
    med = statistics.median
    metrics = {
        "wall_s": med(p["wall_s"] for p in passes),
        "setup_s": med(setup),
        "cpu_s": med(p["cpu_s"] for p in passes),
        "peak_rss_mb": med(p["peak_rss_mb"] for p in passes),
    }
    for slot in dict.fromkeys(cmd.slot for cmd in run.cmds):
        metrics[f"{slot}_s"] = med(
            sum(c["wall"] for c in p["commands"] if c["slot"] == slot) for p in passes)
    return metrics, {"setup_s": setup, "passes": passes}


def traced_metrics(run: Run, seconds: float) -> tuple[dict, dict]:
    passes, _ = loop(run, seconds, lambda i: i % 2 == 0, MIN_TRACED_PASSES, 0)
    traced = [p["layers"] for p in passes if p["traced"]]
    med = statistics.median
    metrics = {}
    for name in traced[0]:
        values = [layer[name] for layer in traced]
        if is_exact(name) and len(set(values)) > 1:
            run.problems.append(f"{name} differs between traced passes: {values}")
        metrics[name] = med(values)
    metrics["tracing_overhead_s"] = (med(p["wall_s"] for p in passes if p["traced"])
                                     - med(p["wall_s"] for p in passes if not p["traced"]))
    return metrics, {"passes": passes, "moves": MOVES}


def check_import() -> None:
    """Import the CLI once, which may compile bytecode, and check it is this checkout's."""
    done = subprocess.run(
        [sys.executable, "-c", "import rydberg_frames.cli as m; print(m.__file__)"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120)
    imported = Path(done.stdout.strip()).resolve() if done.returncode == 0 else None
    if imported != SRC / "rydberg_frames" / "cli.py":
        raise SystemExit(f"run.py: imported {imported}, not the package under {SRC}: "
                         f"{done.stderr.strip()[-500:]}")


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(args, passes: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_VARIABLES},
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rydberg_frames" / "cli.py").is_file():
        print(f"run.py: no package source under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"]
                for m in declared["per_layer" if args.trace else "end_to_end"]}

    # on SIGTERM, unwind so that the running child is killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.chdir(ROOT)
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        check_import()
        run = Run(args.workload, args.seed)
        measure = traced_metrics if args.trace else timed_metrics
        metrics, detail = measure(run, args.seconds)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            WORK.parent.rmdir()

    if set(metrics) != set(declared):
        print(f"run.py: metrics {sorted(set(metrics) ^ set(declared))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 3
    result = {
        "correct": not run.problems and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    record = {
        "provenance": provenance(args, len(detail["passes"])),
        "commands": [{"slot": c.slot, "name": c.name, "args": list(c.args)} for c in run.cmds],
        "sha256": run.digests,
        "problems": run.problems,
        "unwrapped_call_sites": sorted(run.unwrapped),
        **result,
        **detail,
    }
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    names = {}
    for c in run.cmds:
        names.setdefault(f"{c.slot}_s", []).append(c.name)
    for name, entry in result["metrics"].items():
        label = f"  ({' + '.join(names[name])})" if name in names else ""
        print(f"{name:42s} {entry['value']:14.6g} {entry['unit']}{label}")
    print(f"{'error_rate':42s} {run.failed / run.attempted:14.6g} failed/attempted "
          f"({run.failed}/{run.attempted})")
    for problem in run.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"details: {path}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
