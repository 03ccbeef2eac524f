import csv
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import rydberg_frames
from rydberg_frames.cli import build_parser, load_tolerances, main


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


def test_usage_error_exit_code():
    for v1 in ("1,1,0", "nan,0,0"):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["so4", "--v1", v1])
        assert exc.value.code == 2


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
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["table3", "--ecc-grid", "0.5,1.5"])
    assert exc.value.code == 2


def test_so4_rejects_non_unit_vector():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["so4", "--v1", "1,1,0"])
    assert exc.value.code == 2


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


def run_cli_process(argv):
    """Run the CLI in a fresh interpreter; returns (exit code, stderr text)."""
    env = dict(os.environ)
    src = str(Path(rydberg_frames.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "rydberg_frames", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    return proc.returncode, proc.stderr


def assert_usage_error(argv):
    code, err = run_cli_process(argv)
    assert code == 2
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    return err


def test_state_eccentricity_out_of_range_is_usage_error():
    assert_usage_error(["state", "--kind", "elliptic", "--n", "5", "--e", "1.5"])


def test_missing_tolerance_file_is_usage_error(tmp_path):
    assert_usage_error(["table1", "--tolerance-file", str(tmp_path / "missing.json")])


def test_malformed_tolerance_file_is_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert_usage_error(["table2", "--tolerance-file", str(bad)])


def test_unwritable_dump_path_is_usage_error(tmp_path):
    assert_usage_error(["so4", "--samples", "1000",
                        "--dump-samples", str(tmp_path / "no_dir" / "x.csv")])


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
    tol["table2"]["overlap_abs"] = "1e-5"
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
