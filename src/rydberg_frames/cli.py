"""Command line front end: reproduce reference tables, run simulations.

Every command is deterministic given its configuration and seed, and writes
either CSV with a '#'-prefixed metadata header or the same content as JSON.
Exit codes: 0 when all reproduction deviations are inside the declared
tolerances, 1 on a tolerance failure, 2 on usage errors, 3 when a forked
worker of the Monte Carlo path dies (the OOM killer, a signal). Every usage
error, a bad flag value as much as an unreadable tolerance file or an output
path that cannot be written, goes out through the parser: one stderr line. A
dead worker is one stderr line too, and a partly written `so4` dump is removed.
"""

from __future__ import annotations

import argparse
import csv as csv_mod
import io
import json
import math
import os
import sys

from . import __version__
from .angmom import MAX_N, MAX_SAMPLES
from .geometry import UnitVector, two_axis_eta

_METHOD_NOTE = ("closed-form Haar moments by the Clebsch-Gordan series; "
                "golden-section search in e with a three-point vertex")
_DEFAULT_TOLERANCES = os.path.join(os.path.dirname(__file__), "tolerances.json")


def load_tolerances(path=None) -> dict:
    """The tolerance sections of path, or of the package's defaults.

    One bounded read: a file (or device, or pipe) longer than 1 MiB is
    refused with ValueError, as malformed JSON is.
    """
    with open(_DEFAULT_TOLERANCES if path is None else path, "rb") as handle:
        data = handle.read(2**20 + 1)
    if len(data) > 2**20:
        raise ValueError(f"{handle.name} is longer than 1 MiB")
    return json.loads(data)


def check_tolerances(tol, command: str):
    """Raise ValueError unless tol has a finite number >= 0 for each default key of command."""
    section = tol.get(command) if isinstance(tol, dict) else None
    if not isinstance(section, dict):
        raise ValueError(f"no {command!r} section")
    for key in load_tolerances()[command]:
        value = section.get(key)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"section {command!r} has no number {key!r}")
        if not 0 <= value < math.inf:  # json.load accepts NaN and Infinity
            raise ValueError(f"section {command!r}: {key!r} = {value} is not a finite number >= 0")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def _write_text(text: str, out_path):
    """Write text to out_path, or to stdout when no path is given."""
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


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
    _write_text(text, out_path)


# ---------------------------------------------------------------------------
# Commands. Each takes the parsed flags and its tolerance section and returns
# (meta, columns, rows); the last cell of a row is its verdict, or None. Each
# imports the modules it runs, so no command loads (or compiles) the others';
# calls go through the module objects, whose attributes perfbench's tracer wraps.

def cmd_table1(args, tol: dict):
    from . import povm_so3 as p3, reference_values as ref, states as st

    columns = ["n", "axis", "e", "e_ref", "e_dev", "eta", "eta_ref", "eta_dev", "ok"]
    rows = []
    for n in sorted(ref.SINGLE_AXIS):
        e_opt, eta_w = p3.optimize_eccentricity(n, "single_w_axis")
        eta_l = 0.5 * (1.0 - p3.cos_omega_z(st.circular_state(n)))
        eta_k = 0.5 * (1.0 - p3.cos_omega_z(st.extreme_stark(n)))
        cells = {"w": (e_opt, eta_w), "l": (0.0, eta_l), "k": (1.0, eta_k)}
        for axis in ("w", "l", "k"):
            e_val, eta_val = cells[axis]
            e_ref, eta_ref = ref.SINGLE_AXIS[n][axis]
            eta_tol = tol["eta_abs"] if axis == "w" else tol["eta_abs_closed"]
            ok = abs(e_val - e_ref) <= tol["e_abs"] and abs(eta_val - eta_ref) <= eta_tol
            rows.append([n, axis, e_val, e_ref, abs(e_val - e_ref),
                         eta_val, eta_ref, abs(eta_val - eta_ref), ok])
    return {"method": _METHOD_NOTE}, columns, rows


def cmd_table2(args, tol: dict):
    """Coefficient rows for n=10 plus the two quoted overlaps.

    The printed coefficient rows are truncated to four decimals, so computed
    values are compared against the midpoint of the truncation interval.
    """
    from . import povm_so3 as p3, reference_values as ref, states as st

    columns = ["row", "l", "value", "reference", "abs_dev", "ok"]
    rows = []
    stark = [abs(c) for c in st.extreme_stark(10).m0_amplitudes()]
    optimal = p3.optimal_m0_state(10)
    for label, computed, printed in (
        ("stark", stark, ref.STARK_COEFFS_N10),
        ("optimal", optimal, ref.OPTIMAL_COEFFS_N10),
    ):
        for l in range(10):
            value, reference = computed[l], printed[l]
            dev = abs(value - reference)
            rows.append([label, l, value, reference, dev, dev <= tol["coeff_abs"]])

    for n in sorted(ref.STARK_OPTIMAL_OVERLAP):
        stark_n = [abs(c) for c in st.extreme_stark(n).m0_amplitudes()]
        opt_n = p3.optimal_m0_state(n)
        # fsum, correctly rounded: sum() of floats compensates from Python 3.12 on
        value = math.fsum(a * b for a, b in zip(stark_n, opt_n)) ** 2
        reference = ref.STARK_OPTIMAL_OVERLAP[n]
        dev = abs(value - reference)
        rows.append([f"overlap_n{n}", None, value, reference, dev, dev <= tol["overlap_abs"]])
    return {}, columns, rows


def cmd_table3(args, tol: dict):
    from . import povm_so3 as p3, reference_values as ref

    columns = ["kind", "n", "e", "eta", "e_ref", "e_dev", "eta_ref", "eta_dev",
               "optimal_ref", "ok"]
    rows = []
    for n in args.n_list:
        for e in args.ecc_grid:
            eta = two_axis_eta(*p3.cos_omega_xy(p3.alice_two_axis_state(n, e)))
            rows.append(["curve", n, e, eta, None, None, None, None, None, None])
        e_opt, eta_min = p3.optimize_eccentricity(n, "two_axes")
        reference = ref.TWO_AXIS.get(n)
        if reference is None:
            rows.append(["optimum", n, e_opt, eta_min,
                         None, None, None, None, None, None])
            continue
        e_dev = abs(e_opt - reference["e_opt"])
        eta_dev = abs(eta_min - reference["elliptic"])
        ok = e_dev <= tol["e_abs"] and eta_dev <= tol["eta_abs"]
        rows.append(["optimum", n, e_opt, eta_min, reference["e_opt"], e_dev,
                     reference["elliptic"], eta_dev, reference["optimal"], ok])
    meta = {"n_list": ",".join(str(n) for n in args.n_list), "method": _METHOD_NOTE}
    return meta, columns, rows


def cmd_so4(args, tol: dict):
    from . import povm_so4 as p4

    n, samples = args.n, args.samples
    columns = ["axis", "infidelity_closed", "infidelity_mc", "stderr", "pull_sigma", "ok"]
    closed = p4.so4_infidelity(n)
    rows = []
    if samples > 0:
        # count by keyword: perfbench's tracer reads it by name
        batch = p4.sample_outcome_batch(n, count=samples, seed=args.seed)
        # each block is drawn, reduced and rendered where it runs, so no array
        # of the whole batch exists: in the dump's workers, or else in-process
        if args.dump_samples:
            means, m2s = batch.write_csv(args.dump_samples)
        else:
            means, m2s = batch.error_moments()
        for axis, mc, m2 in zip(("1", "2"), means.tolist(), m2s.tolist()):
            stderr = math.sqrt(m2 / (samples - 1)) / math.sqrt(samples)
            pull = abs(mc - closed) / stderr
            rows.append([axis, closed, mc, stderr, pull, pull <= tol["sigma"]])
    else:
        for axis in ("1", "2"):
            rows.append([axis, closed, None, None, None, True])
    meta = {"n": n, "v1": _fmt_vec(args.v1), "v2": _fmt_vec(args.v2),
            "samples": samples, "seed": args.seed}
    return meta, columns, rows


def cmd_ortho(args, tol: dict):
    from . import ortho as ortho_mod, povm_so4 as p4

    samples, seed = args.samples, args.seed
    columns = ["n", "samples", "g", "g_new", "ratio", "stderr",
               "g_expected", "g_pull_sigma", "ratio_ok", "ok"]
    rows = []
    shells = [(n, samples, seed + i) for i, n in enumerate(args.n_list)]
    for report in p4.ordered_map(lambda shell: ortho_mod.gain_factor(*shell), shells):
        n = report.n
        g_expected = p4.so4_infidelity(n)
        g_pull = abs(report.g - g_expected) / _mean_stderr_of_g(n, samples)
        g_ok = g_pull <= tol["sigma"]
        if n >= tol["ratio_min_n"]:
            ratio_ok = abs(report.ratio - tol["ratio_target"]) <= tol["ratio_abs"]
        else:
            ratio_ok = True
        rows.append([n, samples, report.g, report.g_new, report.ratio,
                     report.ratio_stderr, g_expected, g_pull, ratio_ok, g_ok and ratio_ok])
    return {"samples": samples, "seed": seed}, columns, rows


def _mean_stderr_of_g(n, samples):
    # exact per-sample variance of 1/4(1-cos w_x) + 1/4(1-cos w_y):
    # cos w = 1 - 2 s with s ~ Beta(1, n), Var(s) = n / ((n+1)^2 (n+2))
    var_cos = 4.0 * n / ((n + 1.0) ** 2 * (n + 2.0))
    var_sample = 2.0 * var_cos / 16.0
    return math.sqrt(var_sample / samples)


def _state(args):
    from . import states as st

    if args.kind == "elliptic":
        from . import povm_so3 as p3

        return p3.alice_two_axis_state(args.n, args.e)
    return st.circular_state(args.n) if args.kind == "circular" else st.extreme_stark(args.n)


# ---------------------------------------------------------------------------
# Argument parsing. Every flag value is checked here, so a bad one is refused
# through _Parser.error before any work starts.

class _Parser(argparse.ArgumentParser):
    """Refuses a usage error with one stderr line and exit status 2.

    add_subparsers makes the subcommand parsers of this same class.
    """

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _int_range(lo: int, hi=math.inf, zero: bool = False):
    """An argparse type: an integer in lo .. hi, or 0 when zero is set."""
    bound = f"{lo} .. {hi}" if hi < math.inf else f">= {lo}"
    if zero:
        bound = f"0 or {bound}"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}")
        if not (zero and value == 0 or lo <= value <= hi):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    return parse


def _eccentricity(text: str) -> float:
    try:
        e = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number {text!r}")
    if not 0.0 <= e <= 1.0:
        raise argparse.ArgumentTypeError(f"eccentricity must lie in [0, 1], got {text}")
    return e


def _comma_list(item):
    """An argparse type: comma separated values, each read by the type item."""
    return lambda text: [item(part) for part in text.split(",")]


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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rydberg-frames",
        description="Direction transmission with shell coherent states: "
        "reference-table reproduction and simulations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shell, seed = _int_range(2, MAX_N), _int_range(0)

    def add_report(name, run, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", metavar="PATH", default=None)
        p.add_argument("--tolerance-file", metavar="PATH", default=None)
        p.set_defaults(run=run)
        return p

    add_report("table1", cmd_table1, "single-direction errors for the three axis choices")
    add_report("table2", cmd_table2, "m=0 coefficient rows and overlaps")

    p = add_report("table3", cmd_table3, "two-axis error vs eccentricity and its optimum")
    p.add_argument("--n-list", type=_comma_list(_int_range(3, MAX_N)), default=[5, 10, 20])
    p.add_argument("--ecc-grid", type=_comma_list(_eccentricity), default=[],
                   help="comma separated eccentricities for the curve output")

    p = add_report("so4", cmd_so4, "product-measurement infidelity, closed form and sampled")
    p.add_argument("--n", type=shell, default=10)
    for flag, default in (("--v1", (1.0, 0.0, 0.0)), ("--v2", (0.0, 1.0, 0.0))):
        p.add_argument(flag, type=_parse_unit_vector, default=UnitVector(*default),
                       help="transmitted unit vector x,y,z; it only labels the report, since the "
                       f"errors do not depend on the axes (a leading minus needs {flag}=-1,0,0)")
    # a standard error needs at least two samples; 0 gives the closed form only
    p.add_argument("--samples", type=_int_range(2, MAX_SAMPLES, zero=True), default=100000)
    p.add_argument("--seed", type=seed, default=0)
    p.add_argument("--dump-samples", metavar="PATH", default=None,
                   help="write the outcome stream CSV (sample, chi1, chi2, cos_chi1, cos_chi2)")

    p = add_report("ortho", cmd_ortho, "orthogonalization gain across n")
    p.add_argument("--n-list", type=_comma_list(shell), default=[5, 10, 20, 40],
                   help="comma separated shells (default 5,10,20,40; exits 1 by "
                   "design, since the n = 40 ratio band is only a large-n limit)")
    p.add_argument("--samples", type=_int_range(100000, MAX_SAMPLES), default=1000000)
    p.add_argument("--seed", type=seed, default=0)

    p = sub.add_parser("state", help="dump a state as JSON {n, entries: [{l, m, re, im}]}")
    p.add_argument("--kind", choices=("circular", "stark", "elliptic"), required=True)
    p.add_argument("--n", type=shell, required=True)
    p.add_argument("--e", type=_eccentricity, default=None)
    p.add_argument("--out", metavar="PATH", default=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # the checks that span two flags
        if args.command == "state" and (args.kind == "elliptic") != (args.e is not None):
            parser.error("state needs --e with --kind elliptic and refuses it otherwise")
        if args.command == "so4" and args.dump_samples and not args.samples:
            parser.error("so4 --dump-samples needs --samples > 0")
        if args.command != "state":
            try:
                tol = load_tolerances(args.tolerance_file)
                check_tolerances(tol, args.command)
            except (OSError, ValueError) as exc:  # ValueError: bad JSON or bytes, a missing tolerance
                parser.error(f"cannot load tolerances: {exc}")
        try:
            if args.command == "state":
                _write_text(_state(args).to_json(), args.out)
                return 0
            meta, columns, rows = args.run(args, tol[args.command])
            write_report({"command": args.command, "version": __version__, **meta},
                         columns, rows, args.format, args.out)
        except OSError as exc:
            parser.error(f"cannot write the output: {exc}")
        except RuntimeError as exc:
            # a dead worker breaks its pool; the pool's module loaded the
            # exception class, which an import of the CLI does not
            from concurrent.futures import BrokenExecutor

            if not isinstance(exc, BrokenExecutor):
                raise
            print(f"{parser.prog}: error: a worker process died: {exc}", file=sys.stderr)
            return 3
    except SystemExit as exc:  # every usage error leaves through _Parser.error
        return exc.code
    return 0 if all(row[-1] for row in rows if row[-1] is not None) else 1


if __name__ == "__main__":
    sys.exit(main())
