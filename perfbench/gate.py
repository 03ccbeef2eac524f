"""Correctness gate for one CLI command: exit code, verdict columns, own checks.

Each check returns a list of problems; an empty list means the command passed.
Expectations come from the command line itself (n list, samples, seed), from
the package's `reference_values.py` and `tolerances.json`, and from the values
in `pinned.json`, which were taken from the CLI at the commit that added this
benchmark and are compared within a tolerance, not byte for byte.

Monte-Carlo verdicts are pulls against a 3-sigma band, so a seed can fail one
by chance. A pull verdict is accepted when it agrees with the pull recomputed
here and the pull stays below GROSS_SIGMA, which a broken sampler would not
meet; the expected exit code then follows the verdicts.
"""

from __future__ import annotations

import csv
import json
import math
import runpy
from dataclasses import dataclass
from pathlib import Path

import numpy as np

GROSS_SIGMA = 6.0
NORM_RESIDUAL = 1e-12
DUMP_COLUMNS = "sample,chi1,chi2,cos_chi1,cos_chi2"


@dataclass(frozen=True)
class Expectations:
    reference: dict
    tolerances: dict
    pinned: dict

    @classmethod
    def load(cls, package_dir: Path, pinned_path: Path) -> "Expectations":
        reference = runpy.run_path(str(package_dir / "reference_values.py"))
        tolerances = json.loads((package_dir / "tolerances.json").read_text())
        return cls(reference, tolerances, json.loads(pinned_path.read_text()))


def _cell(text: str):
    if text == "":
        return None
    if text in ("yes", "no"):
        return text == "yes"
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def read_report(path):
    """(meta, rows) of a CSV report with a '# key: value' header."""
    meta, body = {}, []
    for line in Path(path).read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        else:
            body.append(line)
    rows = [{k: _cell(v) for k, v in row.items()} for row in csv.DictReader(body)]
    return meta, rows


def _flag(args, flag, default=None):
    return args[args.index(flag) + 1] if flag in args else default


def _dev_ok(printed, value, reference) -> bool:
    scale = max(abs(value), abs(reference))
    return math.isclose(printed, abs(value - reference), rel_tol=1e-6, abs_tol=1e-9 * scale)


def _same(a, b, rel=1e-9) -> bool:
    return a is not None and b is not None and math.isclose(a, b, rel_tol=rel)


class _Problems(list):
    def need(self, condition, message):
        if not condition:
            self.append(message)


def check_command(args, exit_code, out_path, dump_path, exp: Expectations) -> list[str]:
    """Problems with one command's run; `args` is its CLI argument list."""
    kind = args[0]
    try:
        if kind == "state":
            problems = _check_state(args, out_path, exp)
            expected_exit = 0
        else:
            meta, rows = read_report(out_path)
            check = {"table1": _check_table1, "table2": _check_table2,
                     "table3": _check_table3, "so4": _check_so4, "ortho": _check_ortho}[kind]
            problems = check(args, meta, rows, dump_path, exp)
            expected_exit = 1 if any(r["ok"] is False for r in rows) else 0
            if kind == "ortho":
                problems.need(expected_exit == 1, "ortho n = 40 ratio band passed; "
                              "by design it fails at finite n")
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{kind}: unreadable output: {exc!r}"]
    if exit_code != expected_exit:
        problems.append(f"exit code {exit_code}, expected {expected_exit}")
    return [f"{kind}: {p}" for p in problems]


def _reference_rows(rows, problems, expected_keys, key):
    by_key = {key(r): r for r in rows}
    problems.need(len(by_key) == len(rows) and set(by_key) == set(expected_keys),
                  f"rows {sorted(by_key, key=str)} != expected {sorted(expected_keys, key=str)}")
    return by_key


def _check_table1(args, meta, rows, dump_path, exp):
    problems, t = _Problems(), exp.tolerances["table1"]
    table = exp.reference["SINGLE_AXIS"]
    expected = {(n, axis): table[n][axis] for n in table for axis in table[n]}
    by_key = _reference_rows(rows, problems, expected, lambda r: (r["n"], r["axis"]))
    for key, (e_ref, eta_ref) in expected.items():
        row = by_key.get(key)
        if row is None:
            continue
        eta_tol = t["eta_abs"] if key[1] == "w" else t["eta_abs_closed"]
        problems.need(_same(row["e_ref"], e_ref) and _same(row["eta_ref"], eta_ref),
                      f"{key}: reference columns differ from reference_values.py")
        problems.need(_dev_ok(row["e_dev"], row["e"], e_ref)
                      and _dev_ok(row["eta_dev"], row["eta"], eta_ref),
                      f"{key}: deviation columns do not match the values")
        verdict = abs(row["e"] - e_ref) <= t["e_abs"] and abs(row["eta"] - eta_ref) <= eta_tol
        problems.need(row["ok"] == verdict, f"{key}: ok column is {row['ok']}, recomputed {verdict}")
        problems.need(verdict, f"{key}: outside the declared tolerance")
    return problems


def _check_table2(args, meta, rows, dump_path, exp):
    problems, t, ref = _Problems(), exp.tolerances["table2"], exp.reference
    expected = {}
    for label, printed in (("stark", ref["STARK_COEFFS_N10"]),
                           ("optimal", ref["OPTIMAL_COEFFS_N10"])):
        for l, value in enumerate(printed):
            expected[(label, l)] = (value, t["coeff_abs"])
    for n, value in ref["STARK_OPTIMAL_OVERLAP"].items():
        expected[(f"overlap_n{n}", None)] = (value, t["overlap_abs"])
    by_key = _reference_rows(rows, problems, expected, lambda r: (r["row"], r["l"]))
    for key, (reference, tol) in expected.items():
        row = by_key.get(key)
        if row is None:
            continue
        problems.need(_same(row["reference"], reference),
                      f"{key}: reference column differs from reference_values.py")
        problems.need(_dev_ok(row["abs_dev"], row["value"], reference),
                      f"{key}: deviation column does not match the value")
        verdict = abs(row["value"] - reference) <= tol
        problems.need(row["ok"] == verdict, f"{key}: ok column is {row['ok']}, recomputed {verdict}")
        problems.need(verdict, f"{key}: outside the declared tolerance")
    return problems


def _check_table3(args, meta, rows, dump_path, exp):
    problems, t = _Problems(), exp.tolerances["table3"]
    n_list = [int(n) for n in _flag(args, "--n-list", "5,10,20").split(",")]
    grid = [float(e) for e in _flag(args, "--ecc-grid", "").split(",") if e]
    problems.need(meta.get("n_list") == ",".join(map(str, n_list)), "meta n_list mismatch")
    pinned = exp.pinned["table3"]
    curve = {(r["n"], r["e"]): r for r in rows if r["kind"] == "curve"}
    optimum = {r["n"]: r for r in rows if r["kind"] == "optimum"}
    problems.need(len(rows) == len(n_list) * (len(grid) + 1)
                  and set(curve) == {(n, e) for n in n_list for e in grid}
                  and set(optimum) == set(n_list), "row set differs from the n list and grid")
    for (n, e), row in curve.items():
        want = pinned["curve"].get(str(n), {}).get(repr(e))
        problems.need(want is not None and abs(row["eta"] - want) <= pinned["eta_abs"],
                      f"curve n={n} e={e}: eta {row['eta']} != pinned {want}")
    for n, row in optimum.items():
        reference = exp.reference["TWO_AXIS"].get(n)
        if reference is None:
            want = pinned["optimum"].get(str(n))
            problems.need(want is not None
                          and abs(row["e"] - want["e"]) <= pinned["e_abs"]
                          and abs(row["eta"] - want["eta"]) <= pinned["eta_abs"],
                          f"optimum n={n}: ({row['e']}, {row['eta']}) != pinned {want}")
            problems.need(row["ok"] is None, f"optimum n={n}: verdict without a reference")
            continue
        problems.need(_same(row["e_ref"], reference["e_opt"])
                      and _same(row["eta_ref"], reference["elliptic"])
                      and _same(row["optimal_ref"], reference["optimal"]),
                      f"optimum n={n}: reference columns differ from reference_values.py")
        problems.need(_dev_ok(row["e_dev"], row["e"], reference["e_opt"])
                      and _dev_ok(row["eta_dev"], row["eta"], reference["elliptic"]),
                      f"optimum n={n}: deviation columns do not match the values")
        verdict = (abs(row["e"] - reference["e_opt"]) <= t["e_abs"]
                   and abs(row["eta"] - reference["elliptic"]) <= t["eta_abs"])
        problems.need(row["ok"] == verdict, f"optimum n={n}: ok column is {row['ok']}")
        problems.need(verdict, f"optimum n={n}: outside the declared tolerance")
    return problems


def _check_pull(problems, label, pull, printed_pull):
    problems.need(math.isclose(printed_pull, pull, rel_tol=1e-6, abs_tol=1e-6),
                  f"{label}: pull column {printed_pull} != recomputed {pull}")
    problems.need(pull <= GROSS_SIGMA, f"{label}: pull {pull:.2f} sigma, sampler is off")


def _check_so4(args, meta, rows, dump_path, exp):
    problems, sigma = _Problems(), exp.tolerances["so4"]["sigma"]
    n = int(_flag(args, "--n", "10"))
    samples = int(_flag(args, "--samples", "100000"))
    problems.need(meta.get("seed") == _flag(args, "--seed", "0")
                  and meta.get("samples") == str(samples), "meta seed or samples mismatch")
    problems.need([r["axis"] for r in rows] == [1, 2], "expected axis rows 1 and 2")
    closed = 1.0 / (n + 1.0)
    # 0.5 (1 - cos chi) = s with s ~ Beta(1, n)
    stderr = math.sqrt(n / ((n + 1.0) ** 2 * (n + 2.0)) / samples)
    for row in rows:
        label = f"axis {row['axis']}"
        problems.need(_same(row["infidelity_closed"], closed), f"{label}: closed form != 1/(n+1)")
        problems.need(math.isclose(row["stderr"], stderr, rel_tol=0.02),
                      f"{label}: stderr {row['stderr']} far from theory {stderr}")
        pull = abs(row["infidelity_mc"] - closed) / row["stderr"]
        _check_pull(problems, label, pull, row["pull_sigma"])
        problems.need(row["ok"] == (pull <= sigma), f"{label}: ok column {row['ok']}")
    if dump_path:
        problems.extend(_check_dump(dump_path, samples, [r["infidelity_mc"] for r in rows]))
    return problems


def _check_dump(path, samples, infidelities):
    problems = _Problems()
    with open(path) as handle:
        header = handle.readline().strip()
    problems.need(header == DUMP_COLUMNS, f"dump header {header!r}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    problems.need(data.shape == (samples, 5),
                  f"dump has {data.shape[0] + 1} rows, expected samples + 1 = {samples + 1}")
    if data.shape[1] != 5:
        return problems
    problems.need(np.array_equal(data[:, 0], np.arange(data.shape[0])), "sample column")
    for axis, mc in enumerate(infidelities):
        mean = float(np.mean(0.5 * (1.0 - data[:, 3 + axis])))
        problems.need(abs(mean - mc) <= 1e-9, f"dump axis {axis + 1} mean {mean} != report {mc}")
        gap = float(np.max(np.abs(np.cos(data[:, 1 + axis]) - data[:, 3 + axis])))
        problems.need(gap <= 1e-9, f"dump axis {axis + 1}: chi and cos_chi disagree by {gap}")
    return problems


def _check_ortho(args, meta, rows, dump_path, exp):
    problems, t = _Problems(), exp.tolerances["ortho"]
    n_list = [int(n) for n in _flag(args, "--n-list", "5,10,20,40").split(",")]
    samples = int(_flag(args, "--samples", "1000000"))
    problems.need(meta.get("seed") == _flag(args, "--seed", "0"), "meta seed mismatch")
    problems.need([r["n"] for r in rows] == n_list, "rows differ from the n list")
    for row in rows:
        n, label = row["n"], f"n={row['n']}"
        problems.need(row["samples"] == samples, f"{label}: samples column")
        problems.need(_same(row["g_expected"], 1.0 / (n + 1.0)), f"{label}: g_expected")
        var_cos = 4.0 * n / ((n + 1.0) ** 2 * (n + 2.0))
        g_se = math.sqrt(2.0 * var_cos / 16.0 / samples)
        pull = abs(row["g"] - 1.0 / (n + 1.0)) / g_se
        _check_pull(problems, label, pull, row["g_pull_sigma"])
        problems.need(_same(row["ratio"], row["g_new"] / row["g"], rel=1e-8), f"{label}: ratio")
        ratio_ok = n < t["ratio_min_n"] or abs(row["ratio"] - t["ratio_target"]) <= t["ratio_abs"]
        problems.need(row["ratio_ok"] == ratio_ok, f"{label}: ratio_ok column {row['ratio_ok']}")
        problems.need(row["ok"] == (pull <= t["sigma"] and ratio_ok),
                      f"{label}: ok column {row['ok']} disagrees with its checks")
    return problems


def _check_state(args, out_path, exp) -> list[str]:
    problems = _Problems()
    n, kind = int(_flag(args, "--n")), _flag(args, "--kind")
    data = json.loads(Path(out_path).read_text())
    entries = data["entries"]
    problems.need(data["n"] == n and len(entries) == n * n, f"expected n^2 = {n * n} entries")
    coeff = {(e["l"], e["m"]): complex(e["re"], e["im"]) for e in entries}
    problems.need(set(coeff) == {(l, m) for l in range(n) for m in range(-l, l + 1)},
                  "entries do not cover each (l, m) once")
    norm = math.sqrt(math.fsum(abs(c) ** 2 for c in coeff.values()))
    problems.need(abs(norm - 1.0) <= NORM_RESIDUAL, f"norm residual {abs(norm - 1.0):.3g}")
    if kind == "stark":
        # <j -j; j j | l 0> = (-1)^(2j - l) sqrt((2l+1) (2j)!^2 / ((2j-l)! (2j+l+1)!))
        tj, lg = n - 1, math.lgamma
        for (l, m), c in coeff.items():
            if m != 0:
                problems.need(c == 0, f"stark entry ({l}, {m}) is not zero")
                continue
            mag = math.exp(0.5 * (math.log(2 * l + 1) + 2 * lg(tj + 1)
                                  - lg(tj - l + 1) - lg(tj + l + 2)))
            want = (-1) ** (tj - l) * mag
            problems.need(abs(c - want) <= 1e-12, f"stark a_{l}0 = {c} != closed form {want}")
    else:
        pinned = exp.pinned["state"][f"{kind}_n{n}_e{_flag(args, '--e')}"]
        block = [math.sqrt(math.fsum(abs(coeff[(l, m)]) ** 2 for m in range(-l, l + 1)))
                 for l in range(n)]
        weight = [math.fsum(abs(coeff[(l, m)]) ** 2 for l in range(abs(m), n))
                  for m in range(-(n - 1), n)]
        for label, got, want in (("block norms", block, pinned["block_norms"]),
                                 ("m weights", weight, pinned["m_weights"])):
            gap = max(abs(a - b) for a, b in zip(got, want))
            problems.need(len(got) == len(want) and gap <= pinned["abs"],
                          f"{label} differ from pinned values by {gap:.3g}")
    return problems
