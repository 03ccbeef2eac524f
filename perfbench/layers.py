"""Per-layer metrics of one traced pass, computed from the tracer's span files.

Layers are the package modules. `geometry`, `reference_values` and
`tolerances.json` do no measurable work on these workloads and are not traced.
MOVES names, for each metric, the end-to-end metric it should move and where.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict

from spans import ATTRS, END, NAME, OP, START, has_ancestor, self_times

MOVES = {
    "angmom.clebsch_gordan.calls": "state_s (cmd2) and table3_s (cmd1) on large_shell; 0 on monte_carlo",
    "angmom.clebsch_gordan.self_s": "state_s (cmd2) and table3_s (cmd1) on large_shell; 0 on monte_carlo",
    "angmom.small_d_matrices.calls": "table3_s (cmd1) on large_shell",
    "angmom.small_d_matrices.self_s": "table3_s (cmd1) on large_shell",
    "angmom.small_d_matrices.elements": "table3_s (cmd1) on large_shell",
    "angmom.jy_eig.misses": "table3_s (cmd1) on large_shell",
    "states.coupling_tensor.self_s": "state_s (cmd2) and table3_s (cmd1) on large_shell",
    "states.coupling_tensor.misses": "state_s (cmd2) and table3_s (cmd1) on large_shell",
    "states.build_elliptic.calls": "table3_s (cmd1) on large_shell",
    "states.build_elliptic.self_s": "table3_s (cmd1) on large_shell",
    "states.extreme_stark.self_s": "table1_s and table2_s (cmd3) on large_shell",
    "states.to_json_dict.self_s": "state_s (cmd2) on large_shell",
    "povm_so3.cos_omega_xy.calls": "table3_s (cmd1) on large_shell",
    "povm_so3.cos_omega_xy.self_s": "table3_s (cmd1) on large_shell",
    "povm_so3.cos_omega_xy.cold_s": "table3_s (cmd1) on large_shell",
    "povm_so3.cos_omega_xy.warm_ms": "table3_s (cmd1) on large_shell",
    "povm_so3.cos_omega_z.calls": "table1_s (cmd3) on large_shell",
    "povm_so3.cos_omega_z.self_s": "table1_s (cmd3) on large_shell",
    "povm_so3.optimize_eccentricity.evals": "table3_s (cmd1) and table1_s (cmd3) on large_shell",
    "povm_so3.optimize_eccentricity.self_s": "table3_s (cmd1) and table1_s (cmd3) on large_shell",
    "povm_so3.d_stack.hits": "table3_s (cmd1) on large_shell",
    "povm_so3.d_stack.misses": "table3_s (cmd1) on large_shell",
    "povm_so3.quadrature_nodes": "table3_s (cmd1) on large_shell",
    "povm_so3.optimal_m0_state.self_s": "table2_s (cmd3) on large_shell",
    "povm_so4.sample_outcome_batch.self_s": "so4_dump_s (cmd1) and so4_s (cmd2) on monte_carlo",
    "povm_so4.sample_directions_about.calls": "so4_dump_s, so4_s and ortho_s on monte_carlo",
    "povm_so4.sample_directions_about.self_s": "so4_dump_s, so4_s and ortho_s on monte_carlo",
    "povm_so4.samples": "so4_dump_s, so4_s and ortho_s on monte_carlo",
    "povm_so4.write_csv.self_s": "so4_dump_s (cmd1) on monte_carlo only",
    "povm_so4.write_csv.bytes": "so4_dump_s (cmd1) on monte_carlo only",
    "povm_so4.write_csv.mb_per_s": "so4_dump_s (cmd1) on monte_carlo only",
    "ortho.gain_factor.self_s": "ortho_s (cmd3) on monte_carlo",
    "ortho.samples": "ortho_s (cmd3) on monte_carlo",
    "cli.import_s": "setup_s on every workload",
    "cli.write_report.self_s": "every per-command time",
    "cli.write_report.bytes": "every per-command time",
    "cli.main.self_s": "every per-command time",
    "tracing_overhead_s": "none; traced minus untraced pass wall time, from the same run",
}

# counts that must repeat exactly between two traced passes
EXACT_SUFFIXES = (".calls", ".evals", ".misses", ".hits", ".elements", ".bytes", ".samples",
                  "quadrature_nodes")

_QUADRATURE = ("povm_so3.cos_omega_xy", "povm_so3.cos_omega_z")


def is_exact(metric: str) -> bool:
    return metric.endswith(EXACT_SUFFIXES)


def pass_metrics(records) -> dict:
    """Per-layer metrics summed over the span files of one pass's commands."""
    calls, self_s, sums = Counter(), defaultdict(float), defaultdict(float)
    evals = 0
    first_xy, warm_xy = {}, []
    caches = defaultdict(lambda: {"hits": 0, "misses": 0})
    import_s = 0.0
    for record in records:
        spans = record["spans"]
        import_s += record["import_s"]
        for cache, info in record["caches"].items():
            for key in ("hits", "misses"):
                caches[cache][key] += info[key] if info else 0
        for index, (span, own) in enumerate(zip(spans, self_times(spans))):
            name = span[NAME]
            calls[name] += 1
            self_s[name] += own
            for key, value in (span[ATTRS] or {}).items():
                if key != "n":
                    sums[f"{name}.{key}"] += value
            if name in _QUADRATURE and has_ancestor(spans, index, "povm_so3.optimize_eccentricity"):
                evals += 1
            if name == "povm_so3.cos_omega_xy":
                # the first call for a shell in a process builds its d-stacks
                key = (span[OP], span[ATTRS]["n"])
                duration = span[END] - span[START]
                if key in first_xy:
                    warm_xy.append(duration)
                else:
                    first_xy[key] = duration

    write_s = self_s["povm_so4.write_csv"]
    write_bytes = sums["povm_so4.write_csv.bytes"]
    return {
        "angmom.clebsch_gordan.calls": calls["angmom.clebsch_gordan"],
        "angmom.clebsch_gordan.self_s": self_s["angmom.clebsch_gordan"],
        "angmom.small_d_matrices.calls": calls["angmom.small_d_matrices"],
        "angmom.small_d_matrices.self_s": self_s["angmom.small_d_matrices"],
        "angmom.small_d_matrices.elements": sums["angmom.small_d_matrices.elements"],
        "angmom.jy_eig.misses": caches["angmom.jy_eig"]["misses"],
        "states.coupling_tensor.self_s": self_s["states.coupling_tensor"],
        "states.coupling_tensor.misses": caches["states.coupling_tensor"]["misses"],
        "states.build_elliptic.calls": calls["states.build_elliptic"],
        "states.build_elliptic.self_s": self_s["states.build_elliptic"],
        "states.extreme_stark.self_s": self_s["states.extreme_stark"],
        "states.to_json_dict.self_s": self_s["states.to_json_dict"],
        "povm_so3.cos_omega_xy.calls": calls["povm_so3.cos_omega_xy"],
        "povm_so3.cos_omega_xy.self_s": self_s["povm_so3.cos_omega_xy"],
        "povm_so3.cos_omega_xy.cold_s": sum(first_xy.values()),
        "povm_so3.cos_omega_xy.warm_ms": 1e3 * statistics.median(warm_xy) if warm_xy else 0.0,
        "povm_so3.cos_omega_z.calls": calls["povm_so3.cos_omega_z"],
        "povm_so3.cos_omega_z.self_s": self_s["povm_so3.cos_omega_z"],
        "povm_so3.optimize_eccentricity.evals": evals,
        "povm_so3.optimize_eccentricity.self_s": self_s["povm_so3.optimize_eccentricity"],
        "povm_so3.d_stack.hits": caches["povm_so3.d_stack"]["hits"],
        "povm_so3.d_stack.misses": caches["povm_so3.d_stack"]["misses"],
        "povm_so3.quadrature_nodes": sum(sums[f"{name}.nodes"] for name in _QUADRATURE),
        "povm_so3.optimal_m0_state.self_s": self_s["povm_so3.optimal_m0_state"],
        "povm_so4.sample_outcome_batch.self_s": self_s["povm_so4.sample_outcome_batch"],
        "povm_so4.sample_directions_about.calls": calls["povm_so4.sample_directions_about"],
        "povm_so4.sample_directions_about.self_s": self_s["povm_so4.sample_directions_about"],
        "povm_so4.samples": sums["povm_so4.sample_directions_about.count"],
        "povm_so4.write_csv.self_s": write_s,
        "povm_so4.write_csv.bytes": write_bytes,
        "povm_so4.write_csv.mb_per_s": write_bytes / 1e6 / write_s if write_s > 0 else 0.0,
        "ortho.gain_factor.self_s": self_s["ortho.gain_factor"],
        "ortho.samples": sums["ortho.gain_factor.count"],
        "cli.import_s": import_s,
        "cli.write_report.self_s": self_s["cli.write_report"],
        "cli.write_report.bytes": sums["cli.write_report.bytes"],
        "cli.main.self_s": self_s["cli.main"],
    }
