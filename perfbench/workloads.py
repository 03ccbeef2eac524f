"""The benchmark's workloads: the CLI commands one pass runs, in order.

Every workload's commands fill the slots cmd1_s, cmd2_s and cmd3_s, so that
all workloads print the same end-to-end metric names; `name` says which
command a slot holds. A slot's time is the sum of its commands' times in a
pass. `{out}` and `{dump}` are replaced by paths in the run's scratch
directory.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Command:
    slot: str
    name: str
    args: tuple

    def argv(self, out: str, dump: str) -> list[str]:
        return [a.format(out=out, dump=dump) for a in self.args] + ["--out", out]

    @property
    def dumps(self) -> bool:
        return "{dump}" in self.args


def commands(workload: str, seed: int) -> list[Command]:
    s = str(seed)
    table = {
        # The reach goal: Racah sums, cold d-stacks and the moment loop at
        # n = 40 and 50 (n = 50 stays below the n >= 64 Clebsch-Gordan overflow).
        # table1 and table2 are the paper-scale commands, where start-up and
        # import dominate (work moved into import shows there); they are the
        # only callers of cos_omega_z and optimal_m0_state.
        "large_shell": [
            Command("cmd1", "table3_s", ("table3", "--n-list", "40")),
            Command("cmd2", "state_s", ("state", "--kind", "elliptic", "--n", "50", "--e", "0.7")),
            Command("cmd3", "table1_s", ("table1",)),
            Command("cmd3", "table2_s", ("table2",)),
        ],
        # Sampler, orthogonalization and writers with no quadrature; the dump
        # and no-dump so4 runs share the sampler and differ only in the writer.
        "monte_carlo": [
            Command("cmd1", "so4_dump_s",
                    ("so4", "--samples", "1000000", "--seed", s, "--dump-samples", "{dump}")),
            Command("cmd2", "so4_s", ("so4", "--samples", "1000000", "--seed", s)),
            Command("cmd3", "ortho_s",
                    ("ortho", "--n-list", "5,10,20,40", "--samples", "1000000", "--seed", s)),
        ],
    }
    return table[workload]


WORKLOADS = ("large_shell", "monte_carlo")
