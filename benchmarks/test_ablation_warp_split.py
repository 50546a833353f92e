"""Section X.A ablation: sub-warp splitting of non-deterministic loads.

The paper suggests partitioning bursty non-deterministic loads into
sub-warps so each generates only a bounded subset of memory requests.
This benchmark applies the transformation to the graph applications and
measures the change in request burstiness and reservation-fail pressure.
"""

from repro.experiments.render import format_table
from repro.optim import WARP_SPLIT, simulate

APPS = ("bfs", "spmv")
MAX_REQUESTS = 4


def test_warp_split_ablation(benchmark, runner, by_name, emit):
    def run_all():
        return {name: [simulate(by_name[name].run, runner.config, transform,
                                max_requests=MAX_REQUESTS)
                       for transform in (None, WARP_SPLIT)]
                for name in APPS}

    outcomes = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    for name, (base, split) in outcomes.items():
        base_n, split_n = base.classes["N"], split.classes["N"]
        rows.append([name,
                     base_n.requests_per_warp(), split_n.requests_per_warp(),
                     base.reservation_fail_fraction(),
                     split.reservation_fail_fraction(),
                     base_n.mean_turnaround(), split_n.mean_turnaround()])
        # the transformation bounds per-warp request bursts
        assert split_n.requests_per_warp() <= MAX_REQUESTS + 1e-9
        assert split_n.requests_per_warp() <= base_n.requests_per_warp()
    emit("ablation_warp_split", format_table(
        ["app", "base req/warp", "split req/warp", "base fail",
         "split fail", "base N turn", "split N turn"],
        rows, title="Section X.A ablation: sub-warp splitting "
                    "(max %d requests)" % MAX_REQUESTS))
