import json

from conftest import BENCH, run_python

from layers import is_exact, pass_metrics

COMMANDS = [
    ("table3", "--n-list", "5", "--ecc-grid", "0.4,0.7"),
    ("state", "--kind", "elliptic", "--n", "6", "--e", "0.5"),
    ("so4", "--samples", "20000", "--seed", "3", "--dump-samples", "{dump}"),
]


def traced(tmp_path, args, tag):
    out, spans = tmp_path / f"{tag}.out", tmp_path / f"{tag}.spans.json"
    argv = [a.format(dump=tmp_path / f"{tag}.dump") for a in args] + ["--out", str(out)]
    code = run_python(str(BENCH / "tracer.py"), "--spans", str(spans), "--op", tag, "--", *argv)
    return code, out, json.loads(spans.read_text())


def test_traced_outputs_match_untraced_and_counts_repeat(tmp_path, cli):
    for i, args in enumerate(COMMANDS):
        dump = tmp_path / f"plain{i}.dump"
        code, out = cli(*[a.format(dump=dump) for a in args], name=f"plain{i}.out")
        runs = [traced(tmp_path, args, f"t{i}{k}") for k in range(2)]
        for k, (t_code, t_out, record) in enumerate(runs):
            assert t_code == code
            assert t_out.read_bytes() == out.read_bytes()
            if "{dump}" in args:
                assert (tmp_path / f"t{i}{k}.dump").read_bytes() == dump.read_bytes()
            assert record["unwrapped"] == []
            assert record["spans"][0][0] == "cli.main"
        first, second = (pass_metrics([r[2]]) for r in runs)
        exact = {k: v for k, v in first.items() if is_exact(k)}
        assert exact == {k: second[k] for k in exact}


def test_trace_reports_layer_work(tmp_path):
    _, _, record = traced(tmp_path, COMMANDS[0], "t")
    metrics = pass_metrics([record])
    assert metrics["angmom.clebsch_gordan.calls"] > 0
    assert metrics["povm_so3.optimize_eccentricity.evals"] > 10
    assert metrics["povm_so3.cos_omega_xy.calls"] == metrics["povm_so3.optimize_eccentricity.evals"] + 2
    assert metrics["povm_so3.d_stack.misses"] == 5
    assert metrics["cli.write_report.bytes"] == (tmp_path / "t.out").stat().st_size
