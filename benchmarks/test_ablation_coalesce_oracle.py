"""What-if: perfectly coalesced non-deterministic loads.

Quantifies the paper's central motivation on the graph applications: if
the N loads coalesced perfectly (same data, minimal transactions), how
much of the memory bottleneck disappears?
"""

from repro.experiments.render import format_table
from repro.optim import COALESCE_ORACLE, simulate

APPS = ("bfs", "ccl")


def test_coalesce_oracle(benchmark, runner, by_name, emit):
    def run_all():
        return {name: [simulate(by_name[name].run, runner.config, transform)
                       for transform in (None, COALESCE_ORACLE)]
                for name in APPS}

    outcomes = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    for name, (base, oracle) in outcomes.items():
        rows.append([name,
                     base.classes["N"].requests_per_warp(),
                     oracle.classes["N"].requests_per_warp(),
                     base.reservation_fail_fraction(),
                     oracle.reservation_fail_fraction(),
                     base.cycles, oracle.cycles,
                     base.cycles / oracle.cycles])
    emit("ablation_coalesce_oracle", format_table(
        ["app", "base req/warp", "oracle req/warp", "base fail",
         "oracle fail", "base cycles", "oracle cycles", "speedup"],
        rows, title="What-if: perfectly coalesced N loads"))

    for base, oracle in outcomes.values():
        # the entire uncoalesced burst disappears...
        assert oracle.classes["N"].requests_per_warp() <= 1.1
        # ...and with it most of the reservation-failure pressure and a
        # large share of total runtime (the paper's causal chain)
        assert oracle.reservation_fail_fraction() < \
            base.reservation_fail_fraction()
        assert oracle.cycles < base.cycles
