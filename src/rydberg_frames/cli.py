"""Command line front end: reproduce reference tables, run simulations.

Every command is deterministic given its configuration and seed, and writes
either CSV with a '#'-prefixed metadata header or the same content as JSON.
Exit codes: 0 when all reproduction deviations are inside the declared
tolerances, 1 on a tolerance failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv as csv_mod
import io
import json
import math
import sys
from importlib import resources

from . import __version__
from . import ortho as ortho_mod
from . import povm_so3 as p3
from . import povm_so4 as p4
from . import reference_values as ref
from . import states as st
from .angmom import MAX_N
from .geometry import UnitVector

_QUADRATURE_NOTE = "n_beta=2n Gauss-Legendre in cos(beta); n_alpha=n_gamma=4n+4 equispaced"


def load_tolerances(path=None) -> dict:
    if path is not None:
        with open(path) as handle:
            return json.load(handle)
    text = resources.files("rydberg_frames").joinpath("tolerances.json").read_text()
    return json.loads(text)


def check_tolerances(tol, command: str):
    """Raise ValueError unless tol holds a number for every default key of command."""
    section = tol.get(command) if isinstance(tol, dict) else None
    if not isinstance(section, dict):
        raise ValueError(f"no {command!r} section")
    for key in load_tolerances()[command]:
        value = section.get(key)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"section {command!r} has no number {key!r}")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def write_report(meta: dict, columns, rows, fmt: str, out_path):
    if fmt == "csv":
        buf = io.StringIO()
        for key, value in meta.items():
            buf.write(f"# {key}: {value}\n")
        writer = csv_mod.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])
        text = buf.getvalue()
    else:
        payload = {"meta": meta, "columns": list(columns), "rows": [list(r) for r in rows]}
        text = json.dumps(payload, indent=2) + "\n"
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Commands. Each returns (meta, columns, rows, ok).

def cmd_table1(tol: dict):
    t = tol["table1"]
    columns = ["n", "axis", "e", "e_ref", "e_dev", "eta", "eta_ref", "eta_dev", "ok"]
    rows = []
    all_ok = True
    for n in sorted(ref.SINGLE_AXIS):
        e_opt, eta_w = p3.optimize_eccentricity(n, "single_w_axis")
        eta_l = 0.5 * (1.0 - p3.cos_omega_z(st.circular_state(n)))
        eta_k = 0.5 * (1.0 - p3.cos_omega_z(st.extreme_stark(n)))
        cells = {"w": (e_opt, eta_w), "l": (0.0, eta_l), "k": (1.0, eta_k)}
        for axis in ("w", "l", "k"):
            e_val, eta_val = cells[axis]
            e_ref, eta_ref = ref.SINGLE_AXIS[n][axis]
            eta_tol = t["eta_abs"] if axis == "w" else t["eta_abs_closed"]
            ok = bool(abs(e_val - e_ref) <= t["e_abs"] and abs(eta_val - eta_ref) <= eta_tol)
            all_ok &= ok
            rows.append([n, axis, e_val, e_ref, abs(e_val - e_ref),
                         eta_val, eta_ref, abs(eta_val - eta_ref), ok])
    meta = {"command": "table1", "version": __version__, "quadrature": _QUADRATURE_NOTE}
    return meta, columns, rows, all_ok


def cmd_table2(tol: dict):
    """Coefficient rows for n=10 plus the two quoted overlaps.

    The printed coefficient rows are truncated to four decimals, so computed
    values are compared against the midpoint of the truncation interval.
    """
    t = tol["table2"]
    columns = ["row", "l", "value", "reference", "abs_dev", "ok"]
    rows = []
    all_ok = True

    stark = [abs(c) for c in st.extreme_stark(10).m0_amplitudes()]
    optimal = p3.optimal_m0_state(10)
    for label, computed, printed in (
        ("stark", stark, ref.STARK_COEFFS_N10),
        ("optimal", optimal, ref.OPTIMAL_COEFFS_N10),
    ):
        for l in range(10):
            value, reference = float(computed[l]), printed[l]
            dev = abs(value - reference)
            ok = dev <= t["coeff_abs"]
            all_ok &= ok
            rows.append([label, l, value, reference, dev, ok])

    for n in sorted(ref.STARK_OPTIMAL_OVERLAP):
        stark_n = [abs(c) for c in st.extreme_stark(n).m0_amplitudes()]
        opt_n = p3.optimal_m0_state(n)
        value = float(sum(a * b for a, b in zip(stark_n, opt_n))) ** 2
        reference = ref.STARK_OPTIMAL_OVERLAP[n]
        dev = abs(value - reference)
        ok = dev <= t["overlap_abs"]
        all_ok &= ok
        rows.append([f"overlap_n{n}", None, value, reference, dev, ok])

    meta = {"command": "table2", "version": __version__}
    return meta, columns, rows, all_ok


def cmd_table3(n_list, ecc_grid, tol: dict):
    t = tol["table3"]
    columns = ["kind", "n", "e", "eta", "e_ref", "e_dev", "eta_ref", "eta_dev",
               "optimal_ref", "ok"]
    rows = []
    all_ok = True
    for n in n_list:
        for e in ecc_grid or ():
            eta = p3.two_axis_eta(*p3.cos_omega_xy(p3.alice_two_axis_state(n, e)))
            rows.append(["curve", n, e, eta, None, None, None, None, None, None])
        e_opt, eta_min = p3.optimize_eccentricity(n, "two_axes")
        reference = ref.TWO_AXIS.get(n)
        if reference is None:
            rows.append(["optimum", n, e_opt, eta_min,
                         None, None, None, None, None, None])
            continue
        e_dev = abs(e_opt - reference["e_opt"])
        eta_dev = abs(eta_min - reference["elliptic"])
        ok = bool(e_dev <= t["e_abs"] and eta_dev <= t["eta_abs"])
        all_ok &= ok
        rows.append(["optimum", n, e_opt, eta_min, reference["e_opt"], e_dev,
                     reference["elliptic"], eta_dev, reference["optimal"], ok])
    meta = {
        "command": "table3",
        "version": __version__,
        "n_list": ",".join(str(n) for n in n_list),
        "quadrature": _QUADRATURE_NOTE,
    }
    return meta, columns, rows, all_ok


def cmd_so4(n, v1, v2, samples, seed, tol: dict, dump_path=None):
    t = tol["so4"]
    columns = ["axis", "infidelity_closed", "infidelity_mc", "stderr", "pull_sigma", "ok"]
    closed = p4.so4_infidelity(n)
    rows = []
    all_ok = True
    if samples > 0:
        batch = p4.sample_outcome_batch(n, v1, v2, samples, seed)
        if dump_path:
            batch.write_csv(dump_path)
        for axis, cos_chi in (("1", batch.cos_chi1), ("2", batch.cos_chi2)):
            per_sample = 0.5 * (1.0 - cos_chi)
            mc = float(per_sample.mean())
            stderr = float(per_sample.std(ddof=1)) / math.sqrt(samples)
            pull = abs(mc - closed) / stderr
            ok = bool(pull <= t["sigma"])
            all_ok &= ok
            rows.append([axis, closed, mc, stderr, pull, ok])
    else:
        for axis in ("1", "2"):
            rows.append([axis, closed, None, None, None, True])
    meta = {
        "command": "so4",
        "version": __version__,
        "n": n,
        "v1": _fmt_vec(v1),
        "v2": _fmt_vec(v2),
        "samples": samples,
        "seed": seed,
    }
    return meta, columns, rows, all_ok


def cmd_ortho(n_list, samples, seed, tol: dict):
    t = tol["ortho"]
    columns = ["n", "samples", "g", "g_new", "ratio", "stderr",
               "g_expected", "g_pull_sigma", "ratio_ok", "ok"]
    rows = []
    all_ok = True
    for i, n in enumerate(n_list):
        report = ortho_mod.gain_factor(n, samples, seed + i)
        g_expected = 1.0 / (n + 1.0)
        g_se = _mean_stderr_of_g(n, samples, seed + i)
        g_pull = abs(report.g - g_expected) / g_se
        g_ok = bool(g_pull <= t["sigma"])
        if n >= t["ratio_min_n"]:
            ratio_ok = abs(report.ratio - t["ratio_target"]) <= t["ratio_abs"]
        else:
            ratio_ok = True
        ok = g_ok and ratio_ok
        all_ok &= ok
        rows.append([n, samples, report.g, report.g_new, report.ratio,
                     report.ratio_stderr, g_expected, g_pull, ratio_ok, ok])
    meta = {
        "command": "ortho",
        "version": __version__,
        "samples": samples,
        "seed": seed,
    }
    return meta, columns, rows, all_ok


def _mean_stderr_of_g(n, samples, seed):
    # exact per-sample variance of 1/4(1-cos w_x) + 1/4(1-cos w_y):
    # cos w = 1 - 2 s with s ~ Beta(1, n), Var(s) = n / ((n+1)^2 (n+2))
    var_cos = 4.0 * n / ((n + 1.0) ** 2 * (n + 2.0))
    var_sample = 2.0 * var_cos / 16.0
    return math.sqrt(var_sample / samples)


def cmd_state(kind, n, e, out_path):
    if kind == "circular":
        wf = st.circular_state(n)
    elif kind == "stark":
        wf = st.extreme_stark(n)
    else:
        wf = p3.alice_two_axis_state(n, e)
    text = json.dumps(wf.to_json_dict(), indent=2) + "\n"
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return True


# ---------------------------------------------------------------------------
# Argument parsing.

def _parse_unit_vector(text: str) -> UnitVector:
    try:
        parts = [float(p) for p in text.split(",")]
        if len(parts) != 3:
            raise ValueError("expected three components")
        return UnitVector(*parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid unit vector {text!r}: {exc}")


def _fmt_vec(v: UnitVector) -> str:
    return f"{v.x:.10g},{v.y:.10g},{v.z:.10g}"


def _parse_int_list(text: str):
    try:
        return [int(p) for p in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid integer list {text!r}: {exc}")


def _parse_float_list(text: str):
    try:
        values = [float(p) for p in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid number list {text!r}: {exc}")
    if any(not 0.0 <= v <= 1.0 for v in values):
        raise argparse.ArgumentTypeError("eccentricity grid values must lie in [0, 1]")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rydberg-frames",
        description="Direction transmission with shell coherent states: "
        "reference-table reproduction and simulations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", metavar="PATH", default=None)
        p.add_argument("--tolerance-file", metavar="PATH", default=None)

    p1 = sub.add_parser("table1", help="single-direction errors for the three axis choices")
    add_common(p1)

    p2 = sub.add_parser("table2", help="m=0 coefficient rows and overlaps")
    add_common(p2)

    p3_ = sub.add_parser("table3", help="two-axis error vs eccentricity and its optimum")
    add_common(p3_)
    p3_.add_argument("--n-list", type=_parse_int_list, default=[5, 10, 20])
    p3_.add_argument("--ecc-grid", type=_parse_float_list, default=None,
                     help="comma separated eccentricities for the curve output")

    p4_ = sub.add_parser("so4", help="product-measurement infidelity, closed form and sampled")
    add_common(p4_)
    p4_.add_argument("--n", type=int, default=10)
    p4_.add_argument("--v1", type=_parse_unit_vector, default=UnitVector(1.0, 0.0, 0.0))
    p4_.add_argument("--v2", type=_parse_unit_vector, default=UnitVector(0.0, 1.0, 0.0))
    p4_.add_argument("--samples", type=int, default=100000)
    p4_.add_argument("--seed", type=int, default=0)
    p4_.add_argument("--dump-samples", metavar="PATH", default=None,
                     help="write the outcome stream CSV (sample, chi1, chi2, cos_chi1, cos_chi2)")

    p5 = sub.add_parser("ortho", help="orthogonalization gain across n")
    add_common(p5)
    p5.add_argument("--n-list", type=_parse_int_list, default=[5, 10, 20, 40],
                    help="comma separated shells (default 5,10,20,40; exits 1 by "
                    "design, since the n = 40 ratio band is only a large-n limit)")
    p5.add_argument("--samples", type=int, default=1000000)
    p5.add_argument("--seed", type=int, default=0)

    p6 = sub.add_parser("state", help="dump a state as JSON {n, entries: [{l, m, re, im}]}")
    p6.add_argument("--kind", choices=("circular", "stark", "elliptic"), required=True)
    p6.add_argument("--n", type=int, required=True)
    p6.add_argument("--e", type=float, default=None)
    p6.add_argument("--out", metavar="PATH", default=None)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "state":
        if not 2 <= args.n <= MAX_N:
            print(f"state requires 2 <= n <= {MAX_N}", file=sys.stderr)
            return 2
        if args.kind == "elliptic" and args.e is None:
            print("state --kind elliptic requires --e", file=sys.stderr)
            return 2
        if args.kind == "elliptic" and not 0.0 <= args.e <= 1.0:
            print(f"state --e must lie in [0, 1], got {args.e}", file=sys.stderr)
            return 2
        try:
            cmd_state(args.kind, args.n, args.e, args.out)
        except OSError as exc:
            print(f"cannot write the state: {exc}", file=sys.stderr)
            return 2
        return 0

    try:
        tol = load_tolerances(args.tolerance_file)
        check_tolerances(tol, args.command)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bytes, a missing tolerance
        print(f"cannot load tolerances: {exc}", file=sys.stderr)
        return 2
    if args.command == "table1":
        meta, columns, rows, ok = cmd_table1(tol)
    elif args.command == "table2":
        meta, columns, rows, ok = cmd_table2(tol)
    elif args.command == "table3":
        if any(not 3 <= n <= MAX_N for n in args.n_list):
            print(f"table3 requires 3 <= n <= {MAX_N}", file=sys.stderr)
            return 2
        meta, columns, rows, ok = cmd_table3(args.n_list, args.ecc_grid, tol)
    elif args.command == "so4":
        # a standard error needs at least two samples; 0 gives the closed form only
        if not 2 <= args.n <= MAX_N or args.samples < 0 or args.samples == 1 or args.seed < 0:
            print(f"so4 requires 2 <= n <= {MAX_N}, samples 0 or >= 2 and seed >= 0",
                  file=sys.stderr)
            return 2
        try:
            meta, columns, rows, ok = cmd_so4(
                args.n, args.v1, args.v2, args.samples, args.seed, tol, args.dump_samples
            )
        except OSError as exc:
            print(f"cannot write the outcome dump: {exc}", file=sys.stderr)
            return 2
    elif args.command == "ortho":
        if any(not 2 <= n <= MAX_N for n in args.n_list) or args.samples < 100000 or args.seed < 0:
            print(f"ortho requires 2 <= n <= {MAX_N}, samples >= 100000 and seed >= 0",
                  file=sys.stderr)
            return 2
        meta, columns, rows, ok = cmd_ortho(args.n_list, args.samples, args.seed, tol)
    else:  # pragma: no cover - argparse enforces the choices
        return 2

    try:
        write_report(meta, columns, rows, args.format, args.out)
    except OSError as exc:
        print(f"cannot write the report: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
