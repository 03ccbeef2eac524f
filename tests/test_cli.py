import csv
import gc
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as hst

import rydberg_frames
from rydberg_frames import cli, povm_so3
from rydberg_frames.angmom import MAX_SAMPLES
from rydberg_frames.cli import build_parser, load_tolerances, main
from shell_table import optimum_40


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_help_lists_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for name in ("table1", "table2", "table3", "so4", "ortho", "state"):
        assert name in text
    assert main(["--help"]) == 0


def test_usage_error_exit_code():
    # a value argparse cannot convert, an unknown choice and a missing
    # subcommand take the same one-line route as a range check
    for argv in (["so4", "--v1", "1,1,0"], ["so4", "--v1", "nan,0,0"],
                 ["table3", "--n-list", "5,x"], ["so4", "--n", "abc"],
                 ["table1", "--format", "xml"], []):
        assert_usage_error(argv)


def test_default_tolerances_load():
    tol = load_tolerances()
    assert tol["table1"]["eta_abs"] == pytest.approx(1e-4)
    assert tol["ortho"]["ratio_min_n"] == 40


def rerun_bytes(argv, tmp_path):
    """Run a passing command twice; assert the two output files are the same bytes."""
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main([*argv, "--out", str(out1)]) == 0
    assert main([*argv, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    return out1


def test_table2_passes_and_is_deterministic(tmp_path):
    lines = rerun_bytes(["table2"], tmp_path).read_text().splitlines()
    assert lines[0].startswith("# command: table2")
    body = [line for line in lines if not line.startswith("#")]
    rows = list(csv.reader(body))
    assert rows[0] == ["row", "l", "value", "reference", "abs_dev", "ok"]
    assert all(row[-1] == "yes" for row in rows[1:])


@pytest.mark.parametrize("argv", [["table1"], ["table3", "--n-list", "5"]],
                         ids=["table1", "table3"])
def test_rerun_is_byte_identical(argv, tmp_path):
    # the two commands whose fidelities go through the covariant fiducial
    rerun_bytes(argv, tmp_path)


# Full sha256 of the outputs. CSV reports print 10 significant digits, and the
# Stark and circular states are exact closed forms. The elliptic state dumps
# print every bit of a closed form in +, x, / and correctly rounded sqrt, and
# hold the JSON renderer to the bytes that json.dumps(..., indent=2) wrote for
# them, up to the largest shell. The shell commands load no numpy: they are
# Python floats summed in a fixed order, so their pins hold on every CPython
# from 3.10 (CI runs them without numpy installed), whether or not numpy
# dispatches to its AVX-512 loops, and on every OpenBLAS core tried (below).
# The pins live in pins.json, one {argv, sha256} per id, which CI's job without
# numpy reads too. table3n40 is the benchmark's large shell, and table3n101 one
# curve point and optimum at MAX_N.
_PINNED = {name: (pin["argv"], pin["sha256"])
           for name, pin in json.loads((Path(__file__).parent / "pins.json").read_text()).items()}


@pytest.mark.parametrize("argv, digest", list(_PINNED.values()), ids=list(_PINNED))
def test_output_bytes_are_pinned(argv, digest, tmp_path):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("argv, count", [(["table1"], 2), (["table3"], 3),
                                         (["table3", "--n-list", "40"], 1),
                                         (["table3", "--n-list", "101"], 1)],
                         ids=["table1", "table3", "table3n40", "table3n101"])
def test_printed_optima_are_the_40_digit_roots(argv, count, tmp_path):
    # every printed e of an optimum (table1's w rows, table3's optimum rows) is
    # the root of the exact d eta/de at its printed digits; at n >= 60 the
    # float kernels define the root only to 2e-13 (their ordered loops' rounding)
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    rows = list(csv.DictReader(line for line in out.read_text().splitlines()
                               if not line.startswith("#")))
    optima = [(int(row["n"]), 1 if "kind" in row else 0, row["e"]) for row in rows
              if row.get("axis") == "w" or row.get("kind") == "optimum"]
    assert len(optima) == count
    for n, q, cell in optima:
        root, noise = optimum_40(n, q), Decimal("2e-13") if n >= 60 else 0
        assert cell in {f"{float(root - noise):.10g}", f"{float(root + noise):.10g}"}, (n, cell)


def _numpy_dispatch():
    """numpy's CPU features and the SIMD targets its loops were built for."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return umath.__cpu_features__, umath.__cpu_dispatch__


# numpy's dispatch on an AVX2 + FMA machine, set before numpy loads: every
# AVX-512 target off ("X86_V4 AVX512_ICL AVX512_SPR" with numpy 2.4). Every pin
# but the Monte Carlo ones, whose float power and arccos loops take AVX-512 by
# design: the shell path runs no numpy loop whose bits depend on it
_FEATURES, _DISPATCH = _numpy_dispatch()
_NO_AVX512 = " ".join(t for t in _DISPATCH if t.startswith("AVX512") or t == "X86_V4")
_SHELL_PINS = [name for name in _PINNED if name not in ("so4", "ortho")]


@pytest.mark.skipif(not (_FEATURES.get("AVX512F") and _NO_AVX512),
                    reason="numpy takes no AVX-512 loop here, so it already dispatches as "
                           "the emulation would, and test_output_bytes_are_pinned checks that")
@pytest.mark.parametrize("name", _SHELL_PINS)
def test_shell_pins_hold_without_avx512_dispatch(name, tmp_path):
    argv, digest = _PINNED[name]
    out = tmp_path / "out"
    env = dict(child_env(), NPY_DISABLE_CPU_FEATURES=_NO_AVX512)
    subprocess.run([sys.executable, "-m", "rydberg_frames", *argv, "--out", str(out)],
                   env=env, capture_output=True, timeout=120, check=True)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# OpenBLAS picks its kernels by CPU core when it loads, and OPENBLAS_CORETYPE
# in a child's environment makes it take another core's: an AVX2 + FMA machine
# (Haswell) and an AVX-only one (Sandybridge)
@pytest.mark.skipif(not (_FEATURES.get("AVX2") and _FEATURES.get("FMA3")),
                    reason="numpy reports no AVX2 or FMA3 here, and OpenBLAS's Haswell "
                           "kernels need both")
@pytest.mark.parametrize("core", ["Haswell", "Sandybridge"])
@pytest.mark.parametrize("name", _SHELL_PINS)
def test_shell_pins_hold_on_other_openblas_cores(name, core, tmp_path):
    argv, digest = _PINNED[name]
    out = tmp_path / "out"
    env = dict(child_env(), OPENBLAS_CORETYPE=core)
    subprocess.run([sys.executable, "-m", "rydberg_frames", *argv, "--out", str(out)],
                   env=env, capture_output=True, timeout=120, check=True)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_paper_tables_make_no_lapack_call(monkeypatch, tmp_path):
    # the optima (the m = 0 signal and the eccentricity), the tables around
    # them and the elliptic state are closed forms: no eigensolver or
    # least-squares fit on any shell path
    def refuse(*args, **kwargs):
        raise AssertionError("a LAPACK routine was called")

    for name in ("eigh", "eigvalsh", "lstsq", "svd"):
        monkeypatch.setattr(np.linalg, name, refuse)
    monkeypatch.setattr(np, "polyfit", refuse)
    for argv in (["table1"], ["table2"], ["table3", "--n-list", "40"],
                 ["state", "--kind", "elliptic", "--n", "50", "--e", "0.7"]):
        assert main([*argv, "--out", str(tmp_path / "out")]) == 0, argv
    for objective in ("two_axes", "single_w_axis"):
        povm_so3.optimize_eccentricity(5, objective)


def test_each_table_builds_only_the_plane_it_reads(monkeypatch, tmp_path):
    # table1's fidelities read only the series plane q = 0, table3's only q = 1
    built = []
    original = povm_so3._series_block
    monkeypatch.setattr(povm_so3, "_series_block",
                        lambda l, big_l, q: built.append(q) or original(l, big_l, q))
    for argv, plane in ((["table1"], 0), (["table3", "--n-list", "5"], 1)):
        built.clear()
        povm_so3._cg_plane.cache_clear()
        assert main([*argv, "--out", str(tmp_path / "out")]) == 0
        assert set(built) == {plane}, argv


def test_table2_json_format():
    code, text = run_cli(["table2", "--format", "json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["meta"]["command"] == "table2"
    assert payload["columns"][0] == "row"
    overlap_rows = [r for r in payload["rows"] if r[0] == "overlap_n10"]
    assert overlap_rows[0][2] == pytest.approx(0.76406, abs=1e-5)


def test_table1_passes():
    code, text = run_cli(["table1"])
    assert code == 0
    assert "0.193967" in text or "0.1939670" in text


def test_table3_with_grid(tmp_path):
    out = tmp_path / "t3.csv"
    code = main(["table3", "--n-list", "5", "--ecc-grid", "0.5,0.708", "--out", str(out)])
    assert code == 0
    body = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    rows = list(csv.reader(body))
    kinds = [row[0] for row in rows[1:]]
    assert kinds == ["curve", "curve", "optimum"]


def test_table3_rejects_small_n():
    code, _ = run_cli(["table3", "--n-list", "2"])
    assert code == 2


def test_so4_closed_form_only():
    code, text = run_cli(["so4", "--n", "10", "--samples", "0"])
    assert code == 0
    body = [line for line in text.splitlines() if not line.startswith("#")]
    rows = list(csv.reader(body))
    assert float(rows[1][1]) == pytest.approx(1.0 / 11.0)
    assert rows[1][2] == ""


def test_so4_monte_carlo_and_dump(tmp_path):
    dump = tmp_path / "stream.csv"
    code, text = run_cli([
        "so4", "--n", "6", "--samples", "20000", "--seed", "9",
        "--dump-samples", str(dump),
    ])
    assert code == 0
    with open(dump) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["sample", "chi1", "chi2", "cos_chi1", "cos_chi2"]
    assert len(rows) == 20001


def test_so4_seeded_rerun_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["so4", "--n", "6", "--samples", "5000", "--seed", "9"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_ecc_grid_validation():
    assert_usage_error(["table3", "--ecc-grid", "0.5,1.5"])


def test_ortho_small_n_passes():
    code, text = run_cli(["ortho", "--n-list", "5,10", "--samples", "100000", "--seed", "2"])
    assert code == 0
    assert "ratio" in text


def test_ortho_ratio_check_fails_at_n40():
    # the exact in-plane procedure measures ~0.782 at n=40, outside the
    # declared 0.75 +- 0.01 band, so the contract demands a nonzero exit
    code, text = run_cli(["ortho", "--n-list", "40", "--samples", "200000", "--seed", "3"])
    assert code == 1
    body = [line for line in text.splitlines() if not line.startswith("#")]
    rows = list(csv.reader(body))
    ratio = float(rows[1][4])
    assert 0.77 < ratio < 0.80


def test_tolerance_failure_exit_code(tmp_path):
    tol = load_tolerances()
    tol["table2"]["overlap_abs"] = 1e-12
    tol_path = tmp_path / "strict.json"
    tol_path.write_text(json.dumps(tol))
    code, _ = run_cli(["table2", "--tolerance-file", str(tol_path)])
    assert code == 1


def test_state_dump_schema():
    code, text = run_cli(["state", "--kind", "stark", "--n", "3"])
    assert code == 0
    payload = json.loads(text)
    assert payload["n"] == 3
    keys = [(e["l"], e["m"]) for e in payload["entries"]]
    assert keys == sorted(keys)
    assert len(keys) == 9
    total = sum(e["re"] ** 2 + e["im"] ** 2 for e in payload["entries"])
    assert total == pytest.approx(1.0, abs=1e-12)


def test_state_elliptic_requires_e():
    code, _ = run_cli(["state", "--kind", "elliptic", "--n", "5"])
    assert code == 2
    code, text = run_cli(["state", "--kind", "elliptic", "--n", "5", "--e", "0.7"])
    assert code == 0
    payload = json.loads(text)
    assert payload["n"] == 5


def child_env():
    """The environment of a fresh interpreter that imports this package."""
    env = dict(os.environ)
    src = str(Path(rydberg_frames.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_cli_process(argv):
    """Run the CLI in a fresh interpreter; returns (exit code, stderr text)."""
    proc = subprocess.run([sys.executable, "-m", "rydberg_frames", *argv],
                          capture_output=True, text=True, env=child_env(), timeout=120)
    return proc.returncode, proc.stderr


# Runs the CLI and prints its exit code, the package modules it loaded, and
# numpy if it loaded that.
_LOADED_PROBE = (
    "import sys\n"
    "from rydberg_frames.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(code, *sorted(m for m in sys.modules if m.startswith('rydberg_frames.')\n"
    "                    or m in ('numpy', 'dataclasses', 'inspect', 'json', 'csv')))\n"
)
# the Monte Carlo modules, and numpy, which only they import (for Philox)
_MONTE_CARLO = {"povm_so4", "ortho", "numpy"}
# no command imports dataclasses; numpy imports inspect, so only the shell
# commands, which load no numpy, can be held to start without it
_SHELL_ABSENT = {*_MONTE_CARLO, "dataclasses", "inspect"}
# `state` reads no tolerances and writes its JSON by itself
_STATE_ABSENT = {*_SHELL_ABSENT, "reference_values", "json", "csv"}


@pytest.mark.parametrize("argv, loaded, absent", [
    (["state", "--kind", "elliptic", "--n", "5", "--e", "0.7"], {"states"},
     {"povm_so3", *_STATE_ABSENT}),
    (["state", "--kind", "stark", "--n", "5"], {"states"}, {"povm_so3", *_STATE_ABSENT}),
    (["state", "--kind", "circular", "--n", "5"], {"states"}, {"povm_so3", *_STATE_ABSENT}),
    (["table1"], {"states", "povm_so3", "reference_values"}, _SHELL_ABSENT),
    (["table2"], {"states", "povm_so3", "reference_values"}, _SHELL_ABSENT),
    (["table3", "--n-list", "5"], {"povm_so3", "reference_values"}, _SHELL_ABSENT),
    (["so4", "--samples", "20000"], {"povm_so4", "numpy"},
     {"povm_so3", "ortho", "states", "reference_values", "dataclasses"}),
    (["ortho", "--n-list", "5", "--samples", "100000"], _MONTE_CARLO,
     {"povm_so3", "states", "reference_values", "dataclasses"}),
], ids=["state-elliptic", "state-stark", "state-circular", "table1", "table2", "table3", "so4",
        "ortho"])
def test_each_command_loads_only_its_modules(argv, loaded, absent, tmp_path):
    proc = subprocess.run([sys.executable, "-c", _LOADED_PROBE, *argv, "--out", str(tmp_path / "o")],
                          capture_output=True, text=True, env=child_env(), timeout=120, check=True)
    code, *names = proc.stdout.split()
    modules = {name.removeprefix("rydberg_frames.") for name in names}
    assert code == "0"
    assert loaded <= modules
    assert not absent & modules


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("argv", [["table2"], ["so4", "--samples", "20000"]], ids=["table2", "so4"])
def test_main_leaves_the_collector_alone(argv, enabled, tmp_path):
    # only the entry, which ends with its process, turns the collector off
    # and freezes; tests and the tracer call main in their own process
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        frozen = gc.get_freeze_count()
        assert main([*argv, "--out", str(tmp_path / "out")]) == 0
        assert gc.isenabled() == enabled
        assert gc.get_freeze_count() == frozen
    finally:
        (gc.enable if was_enabled else gc.disable)()


# Runs `python -m rydberg_frames` in this interpreter (its __main__ calls
# cli.run) and prints at exit whether the collector is on and how many
# objects are frozen.
_ENTRY_PROBE = (
    "import atexit, gc, runpy\n"
    "atexit.register(lambda: print(gc.isenabled(), gc.get_freeze_count()))\n"
    "runpy.run_module('rydberg_frames', run_name='__main__', alter_sys=True)\n"
)


def test_entry_runs_with_the_collector_off_and_frozen(tmp_path):
    strict = load_tolerances()
    strict["table1"]["eta_abs"] = 0.0
    (tmp_path / "strict.json").write_text(json.dumps(strict))
    for argv, expected in (
        (["state", "--kind", "circular", "--n", "5", "--out", str(tmp_path / "state")], 0),
        (["so4", "--samples", "20000", "--out", str(tmp_path / "so4")], 0),
        (["so4", "--n", "abc"], 2),
        (["table1", "--tolerance-file", str(tmp_path / "strict.json"),
          "--out", str(tmp_path / "table1")], 1),
    ):
        proc = subprocess.run([sys.executable, "-c", _ENTRY_PROBE, *argv], capture_output=True,
                              text=True, env=child_env(), timeout=120)
        assert proc.returncode == expected, argv
        enabled, frozen = proc.stdout.split()
        assert enabled == "False" and int(frozen) > 0, argv


def assert_usage_error(argv):
    code, err = run_cli_process(argv)
    assert code == 2
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    return err


def test_state_eccentricity_out_of_range_is_usage_error():
    assert_usage_error(["state", "--kind", "elliptic", "--n", "5", "--e", "1.5"])
    # only the elliptic kind has an eccentricity
    assert_usage_error(["state", "--kind", "circular", "--n", "101", "--e", "5"])


def test_each_tolerance_file_is_read_once(monkeypatch, tmp_path):
    # the package's defaults, which name the keys to check, are read once,
    # and a --tolerance-file besides them once more
    reads = []
    original = cli.load_tolerances
    monkeypatch.setattr(cli, "load_tolerances", lambda path=None: reads.append(path) or original(path))
    assert main(["table2", "--out", str(tmp_path / "out")]) == 0
    assert reads == [None]
    custom = tmp_path / "tol.json"
    custom.write_text(json.dumps(original()))
    reads.clear()
    assert main(["table2", "--tolerance-file", str(custom), "--out", str(tmp_path / "out")]) == 0
    assert reads == [str(custom), None]


def test_missing_tolerance_file_is_usage_error(tmp_path):
    assert_usage_error(["table1", "--tolerance-file", str(tmp_path / "missing.json")])


def _cap_address_space():
    # 1 GiB in the child alone: an unbounded read fails there in seconds
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def test_endless_tolerance_file_is_usage_error():
    # the read stops at 1 MiB + 1 bytes; an unbounded one would fill the
    # capped address space and die with a MemoryError traceback and exit 1
    proc = subprocess.run([sys.executable, "-m", "rydberg_frames", "table1",
                           "--tolerance-file", "/dev/zero"],
                          capture_output=True, text=True, env=child_env(), timeout=60,
                          preexec_fn=_cap_address_space)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1


def test_malformed_tolerance_file_is_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert_usage_error(["table2", "--tolerance-file", str(bad)])


def test_unwritable_dump_path_is_usage_error(tmp_path):
    assert_usage_error(["so4", "--samples", "1000",
                        "--dump-samples", str(tmp_path / "no_dir" / "x.csv")])
    # the closed form alone draws no outcomes to dump
    dump = tmp_path / "x.csv"
    assert_usage_error(["so4", "--samples", "0", "--dump-samples", str(dump)])
    assert not dump.exists()


def test_unwritable_report_path_is_usage_error(tmp_path):
    assert_usage_error(["table1", "--out", str(tmp_path / "no_dir" / "x.csv")])


@pytest.mark.parametrize("command", ["so4", "ortho"])
def test_negative_seed_is_usage_error(command):
    assert_usage_error([command, "--seed", "-1"])


def test_tolerance_file_without_section_is_usage_error(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    assert_usage_error(["table1", "--tolerance-file", str(empty)])


def test_tolerance_file_without_key_is_usage_error(tmp_path):
    tol = load_tolerances()
    del tol["table2"]["overlap_abs"]
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps(tol))
    assert_usage_error(["table2", "--tolerance-file", str(partial)])
    for bad in ("1e-5", math.nan, math.inf, -1):
        tol["table2"]["overlap_abs"] = bad
        partial.write_text(json.dumps(tol))
        assert_usage_error(["table2", "--tolerance-file", str(partial)])


def test_single_sample_is_usage_error():
    # a standard error needs two samples
    assert_usage_error(["so4", "--samples", "1"])
    assert_usage_error(["so4", "--samples", "1", "--format", "json"])


@pytest.mark.parametrize("argv", [
    ["state", "--kind", "elliptic", "--n", "250", "--e", "0.5"],
    ["state", "--kind", "stark", "--n", "300"],
    ["state", "--kind", "circular", "--n", "102"],
    ["table3", "--n-list", "5,102"],
    ["so4", "--n", str(10**400), "--samples", "0"],
    ["so4", "--n", str(10**16)],
    ["ortho", "--n-list", str(10**400)],
    ["ortho", "--n-list", str(10**17), "--samples", "100000"],
], ids=["elliptic", "stark", "circular", "table3", "so4", "so4_1e16", "ortho", "ortho_1e17"])
def test_shell_above_max_n_is_usage_error(argv):
    assert "101" in assert_usage_error(argv)


@pytest.mark.parametrize("command", ["so4", "ortho"])
def test_samples_above_max_samples_is_usage_error(command):
    # refused before anything is drawn: the count would need gigabytes
    err = assert_usage_error([command, "--samples", str(MAX_SAMPLES + 1)])
    assert str(MAX_SAMPLES) in err



# Odd values, one of which may replace the drawn value of any flag but a
# path: non-finite and overflowing numbers, the empty string, a non-ASCII
# digit and an underscore grouping (int() and float() take both), a leading
# minus and a word
_ODD = ("nan", "inf", "-inf", "1e400", "", "\u0665", "1_000", "-1", "x")
# the path flags draw a kind, which the test maps to a path in tmp_path
_WRITE = hst.sampled_from(("@file", "@missing", "@directory"))
_SHELL = hst.sampled_from(("2", "10", "101", "102", "1", str(10**400)))
_VECTOR = hst.sampled_from(("1,0,0", "0,1,0", "-1,0,0", "0.6,0.8,0", "1,1,0", "nan,0,0",
                            "inf,0,0", "1e400,0,0", "1,0", "1,0,0,0", ",,", "\u0665,0,0"))
_PATHS = {"--out": _WRITE, "--dump-samples": _WRITE,
          "--tolerance-file": hst.sampled_from(("@defaults", "@zeros", "@junk", "@nan",
                                                "@truncated", "@missing", "@directory"))}
_VALUES = {
    **_PATHS, "--format": hst.sampled_from(("csv", "json")), "--n": _SHELL, "--v1": _VECTOR,
    "--v2": _VECTOR, "--seed": hst.sampled_from(("0", "7", str(2**64))),
    "--kind": hst.sampled_from(("circular", "stark", "elliptic")),
    "--e": hst.sampled_from(("0", "0.5", "1", "1.5")),
    "--ecc-grid": hst.sampled_from(("0.3", "0,1", "0.5,0.7", "1.5", "-0.1")),
    ("table3", "--n-list"): hst.sampled_from(("5", "3,4", "10", "2", "102", "5,x", "5,,10")),
    ("ortho", "--n-list"): hst.sampled_from(("5", "2,10", "101", "5,x", "102")),
    ("so4", "--samples"): hst.sampled_from(("0", "2", "1000", "3000", "1", str(10**9))),
    ("ortho", "--samples"): hst.sampled_from(("100000", "100_000", "99999", str(10**9))),
}
_REPORT = ("--format", "--out", "--tolerance-file")
_FLAGS = {
    "table1": _REPORT,
    "table2": _REPORT,
    "table3": (*_REPORT, "--n-list", "--ecc-grid"),
    "so4": (*_REPORT, "--n", "--v1", "--v2", "--samples", "--seed", "--dump-samples"),
    "ortho": (*_REPORT, "--n-list", "--samples", "--seed"),
    "state": ("--kind", "--n", "--e", "--out"),
}
# Given in every draw: state's required flags, and the sample counts and shells
# whose defaults are large. Valid counts stay small (so4 at most 3000, ortho
# its 100,000 floor on at most two shells); 10^9 is drawn only to be refused
# before any work.
_ALWAYS = {("state", "--kind"), ("state", "--n"), ("so4", "--samples"), ("ortho", "--n-list"),
           ("ortho", "--samples")}


@hst.composite
def _argvs(draw):
    command = draw(hst.sampled_from(sorted(_FLAGS)))
    flags = [flag for flag in _FLAGS[command]
             if (command, flag) in _ALWAYS or draw(hst.booleans())]
    odd = draw(hst.sampled_from([None, *(flag for flag in flags if flag not in _PATHS)]))
    argv = [command]
    for flag in flags:
        if flag == odd:
            value = draw(hst.sampled_from(_ODD))
        else:
            value = draw(_VALUES.get((command, flag), _VALUES.get(flag)))
        argv += [f"{flag}={value}"] if draw(hst.booleans()) else [flag, value]
    return argv


def _path_kinds(tmp_path):
    """The paths that the drawn kinds stand for, with the tolerance files written."""
    tol = load_tolerances()
    text = json.dumps(tol)
    files = {"defaults": text, "truncated": text[: len(text) // 2], "junk": "\x00\udcff}{",
             "zeros": json.dumps({name: dict.fromkeys(section, 0) for name, section in tol.items()}),
             "nan": json.dumps({name: dict.fromkeys(section, math.nan)
                                for name, section in tol.items()})}
    paths = {"@file": tmp_path / "out", "@missing": tmp_path / "missing" / "out",
             "@directory": tmp_path}
    for kind, content in files.items():
        paths[f"@{kind}"] = tmp_path / f"{kind}.json"
        paths[f"@{kind}"].write_bytes(content.encode("utf-8", "surrogateescape"))
    return paths


def _with_path(arg, paths):
    """arg, or `--flag=path` and `path` for the kind it names."""
    flag, equals, value = arg.rpartition("=") if arg.startswith("--") else ("", "", arg)
    return f"{flag}{equals}{paths[value]}" if value in paths else arg


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_argvs())
@example(["so4", "--samples", str(10**9)])
@example(["ortho", "--n-list", "5", "--samples", str(10**9)])
@example(["table1", "--tolerance-file", "@nan"])
@example(["so4", "--samples=1_000", "--seed", str(2**64), "--dump-samples", "@file"])
@example(["state", "--kind", "elliptic", "--n", "\u0665", "--e", "1"])
def test_exit_code_contract_holds_for_odd_flags(tmp_path, argv):
    # in-process: an exit code of the contract, one stderr line on a usage
    # error, none on a run, and never a traceback (an exception leaving main
    # fails the test)
    paths = _path_kinds(tmp_path)
    argv = [_with_path(arg, paths) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert len(err.getvalue().splitlines()) == 1, argv
    elif code < 2:
        assert not err.getvalue(), argv
