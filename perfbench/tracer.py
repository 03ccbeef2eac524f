"""Run one rydberg-frames CLI command with a span around each layer call.

    python3 perfbench/tracer.py --spans SPANS.json --op ID -- <cli arguments>

The library is not edited: each wrapper replaces a name in the namespace of
the module that calls it (for example `povm_so3.small_d_matrices` and
`states.clebsch_gordan`), so calls made through that name are timed. Spans
are kept in memory and written to SPANS.json when the command ends, together
with the import time and the `lru_cache` counters. The command's exit code is
passed through, and its output files are the same bytes as without tracing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from spans import SpanRecorder

SRC = Path(__file__).resolve().parent.parent / "src"


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs.get(name)


def _size_of(position, name):
    def attrs(args, kwargs, result):
        path = _arg(args, kwargs, position, name)
        return {"bytes": os.path.getsize(path)} if path else None

    return attrs


def _count(position, name):
    return lambda args, kwargs, result: {"count": int(_arg(args, kwargs, position, name))}


def _elements(args, kwargs, result):
    return {"elements": int(result.size)}


def targets():
    """(module or class, attribute, span name, attrs) for every traced call site."""
    from rydberg_frames import cli, ortho, povm_so3, povm_so4, states

    def quadrature(args, kwargs, result):
        state = args[0]
        rule = _arg(args, kwargs, 1, "rule") or povm_so3.QuadratureRule.for_shell(state.n)
        return {"n": state.n, "nodes": rule.n_beta * rule.n_alpha * rule.n_gamma}

    return [
        (states, "clebsch_gordan", "angmom.clebsch_gordan", None),
        (povm_so3, "small_d_matrices", "angmom.small_d_matrices", _elements),
        (povm_so4, "small_d_matrices", "angmom.small_d_matrices", _elements),
        (states, "small_d_matrices", "angmom.small_d_matrices", _elements),
        (states, "coupling_tensor", "states.coupling_tensor", None),
        (povm_so3, "build_elliptic", "states.build_elliptic", None),
        (states, "extreme_stark", "states.extreme_stark", None),
        (states.WaveFunction, "to_json_dict", "states.to_json_dict", None),
        (povm_so3, "cos_omega_xy", "povm_so3.cos_omega_xy", quadrature),
        (povm_so3, "cos_omega_z", "povm_so3.cos_omega_z", quadrature),
        (povm_so3, "optimize_eccentricity", "povm_so3.optimize_eccentricity", None),
        (povm_so3, "optimal_m0_state", "povm_so3.optimal_m0_state", None),
        (povm_so4, "sample_outcome_batch", "povm_so4.sample_outcome_batch", _count(3, "count")),
        (povm_so4, "sample_directions_about", "povm_so4.sample_directions_about",
         _count(2, "count")),
        (ortho, "sample_directions_about", "povm_so4.sample_directions_about",
         _count(2, "count")),
        (povm_so4.OutcomeBatch, "write_csv", "povm_so4.write_csv", _size_of(1, "path")),
        (ortho, "gain_factor", "ortho.gain_factor", _count(1, "samples")),
        (cli, "write_report", "cli.write_report", _size_of(4, "out_path")),
        (cli, "main", "cli.main", None),
    ]


def cache_counters(functions) -> dict:
    """cache_info() of each lru_cache, or None where the function is gone."""
    out = {}
    for name, fn in functions.items():
        info = getattr(fn, "cache_info", None)
        out[name] = info()._asdict() if info else None
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True)
    parser.add_argument("--op", default="")
    opts = parser.parse_args(argv[:split])
    cli_args = argv[split + 1 :]

    start = time.perf_counter()
    import rydberg_frames.cli  # noqa: F401  (the import users pay for)

    import_s = time.perf_counter() - start

    import rydberg_frames
    from rydberg_frames import angmom, cli, povm_so3, states

    if Path(rydberg_frames.__file__).resolve().parent != SRC / "rydberg_frames":
        print(f"tracer: imported {rydberg_frames.__file__}, not the one under {SRC}",
              file=sys.stderr)
        return 2

    caches = {
        "angmom.jy_eig": getattr(angmom, "_jy_eig", None),
        "povm_so3.d_stack": getattr(povm_so3, "_d_stack_for_rule", None),
        "states.coupling_tensor": getattr(states, "coupling_tensor", None),
    }
    recorder = SpanRecorder(opts.op)
    unwrapped = []
    for owner, attr, name, attrs in targets():
        fn = getattr(owner, attr, None)
        if fn is None:
            unwrapped.append(f"{owner.__name__}.{attr}")
            continue
        setattr(owner, attr, recorder.wrap(fn, name, attrs))

    try:
        code = cli.main(cli_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        record = {
            "op": opts.op,
            "import_s": import_s,
            "caches": cache_counters(caches),
            "unwrapped": unwrapped,
            "spans": recorder.spans,
        }
        with open(opts.spans, "w") as handle:
            json.dump(record, handle, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main())
