"""Section X.B ablation: clustered vs. round-robin CTA scheduling.

The paper argues neighbouring CTAs share data blocks (Figure 12), so
assigning them to the *same* SM should improve private-L1 locality.
This benchmark runs both policies on the data-sharing applications and
reports the L1 delta.
"""

from repro.experiments.render import format_table
from repro.optim import CTA_CLUSTERED, simulate

APPS = ("2mm", "lu", "srad", "bfs")


def test_cta_scheduling_ablation(benchmark, runner, by_name, emit):
    def run_all():
        return {name: [simulate(by_name[name].run, runner.config, transform)
                       for transform in (None, CTA_CLUSTERED)]
                for name in APPS}

    outcomes = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    improved = 0
    for name, (rr, cl) in outcomes.items():
        rows.append([name, rr.l1_miss_ratio(), cl.l1_miss_ratio(),
                     rr.cycles, cl.cycles])
        if cl.l1_miss_ratio() <= rr.l1_miss_ratio():
            improved += 1
    emit("ablation_cta_sched", format_table(
        ["app", "RR L1 miss", "clustered L1 miss", "RR cycles",
         "clustered cycles"],
        rows, title="Section X.B ablation: CTA scheduling policies"))

    # clustering neighbouring CTAs must not hurt L1 locality for the
    # majority of data-sharing applications
    assert improved >= len(APPS) // 2
