import csv
import json

import pytest
from conftest import BENCH, SRC

from gate import Expectations, check_command, read_report


@pytest.fixture(scope="module")
def expect():
    return Expectations.load(SRC / "rydberg_frames", BENCH / "pinned.json")


def rewrite_cell(path, row_index, column, transform):
    """Replace one cell of a CSV report in place, keeping its '#' header."""
    lines = path.read_text().splitlines()
    meta = [line for line in lines if line.startswith("#")]
    rows = list(csv.reader(line for line in lines if not line.startswith("#")))
    col = rows[0].index(column)
    rows[row_index + 1][col] = transform(rows[row_index + 1][col])
    body = "\n".join(",".join(row) for row in rows)
    path.write_text("\n".join(meta) + "\n" + body + "\n")


def test_accepts_table1_and_rejects_wrong_exit_code(cli, expect):
    code, out = cli("table1")
    assert code == 0
    assert check_command(["table1"], 0, out, None, expect) == []
    problems = check_command(["table1"], 1, out, None, expect)
    assert problems == ["table1: exit code 1, expected 0"]


def test_rejects_tampered_row(cli, expect):
    code, out = cli("table1")
    rewrite_cell(out, 0, "eta", lambda text: repr(float(text) + 1e-3))
    problems = check_command(["table1"], code, out, None, expect)
    assert any("deviation columns" in p for p in problems)
    assert any("ok column" in p for p in problems)


def test_rejects_dropped_row(cli, expect):
    code, out = cli("table2")
    lines = out.read_text().splitlines()
    out.write_text("\n".join(lines[:-1]) + "\n")
    assert any("rows" in p for p in check_command(["table2"], code, out, None, expect))


def test_ortho_expects_exit_one(cli, expect):
    args = ["ortho", "--n-list", "5,40", "--samples", "100000", "--seed", "4"]
    code, out = cli(*args)
    assert code == 1
    _, rows = read_report(out)
    assert [r["ratio_ok"] for r in rows] == [True, False]
    assert check_command(args, 1, out, None, expect) == []
    assert any("exit code 0" in p for p in check_command(args, 0, out, None, expect))


def test_so4_dump_checked_against_report(cli, tmp_path, expect):
    dump = tmp_path / "dump.csv"
    args = ["so4", "--samples", "50000", "--seed", "5", "--dump-samples", str(dump)]
    code, out = cli(*args)
    assert check_command(args, code, out, dump, expect) == []
    lines = dump.read_text().splitlines()
    dump.write_text("\n".join(lines[:-1]) + "\n")
    assert any("expected samples + 1" in p for p in check_command(args, code, out, dump, expect))


def test_so4_rejects_tampered_mean(cli, expect):
    args = ["so4", "--samples", "50000", "--seed", "5"]
    code, out = cli(*args)
    rewrite_cell(out, 1, "infidelity_mc", lambda text: repr(float(text) * 1.5))
    problems = check_command(args, code, out, None, expect)
    assert any("pull" in p for p in problems)


def test_state_norm_residual(cli, expect):
    args = ["state", "--kind", "stark", "--n", "6"]
    code, out = cli(*args)
    assert check_command(args, code, out, None, expect) == []
    data = json.loads(out.read_text())
    data["entries"][0]["re"] *= 1.0 + 1e-9
    out.write_text(json.dumps(data))
    problems = check_command(args, code, out, None, expect)
    assert any("norm residual" in p for p in problems)
    assert any("closed form" in p for p in problems)
