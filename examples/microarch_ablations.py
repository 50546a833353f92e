#!/usr/bin/env python
"""The paper's Section X suggestions, measured.

Runs the three microarchitectural ideas the paper discusses as runnable
ablations on real application traces:

* X.A — split non-deterministic loads into sub-warps with bounded
  request bursts,
* X.B — schedule neighbouring CTAs onto the same SM,
* X.C — make the L2 semi-global (private to small SM clusters).
"""

from repro import TESLA_C2050, get_workload
from repro.optim import CTA_CLUSTERED, SEMI_GLOBAL_L2, WARP_SPLIT, simulate

CONFIG = TESLA_C2050.scaled(num_sms=4, num_partitions=2,
                            l1_size=2 * 1024, l2_size=64 * 1024,
                            l1_mshr_entries=32, l2_mshr_entries=16)


def main():
    bfs = get_workload("bfs", scale=0.5).run()
    bfs_base = simulate(bfs, CONFIG)

    print("=" * 72)
    print("X.A  sub-warp splitting of non-deterministic loads (bfs)")
    print("=" * 72)
    split = simulate(bfs, CONFIG, WARP_SPLIT, max_requests=4)
    for label, stats in (("baseline", bfs_base), ("split", split)):
        n = stats.classes["N"]
        print("  %-14s N req/warp %.2f | rsrv-fail share %.0f%% | "
              "mean N turnaround %.0f cycles"
              % (label, n.requests_per_warp(),
                 100 * stats.reservation_fail_fraction(),
                 n.mean_turnaround()))

    print()
    print("=" * 72)
    print("X.B  clustered CTA scheduling (bfs)")
    print("=" * 72)
    clustered = simulate(bfs, CONFIG, CTA_CLUSTERED)
    for name, stats in (("round_robin", bfs_base), ("clustered", clustered)):
        print("  %-14s L1 miss %.1f%% | cycles %d"
              % (name, 100 * stats.l1_miss_ratio(), stats.cycles))

    print()
    print("=" * 72)
    print("X.C  semi-global L2 (bfs, clusters of 2 SMs)")
    print("=" * 72)
    semi = simulate(bfs, CONFIG, SEMI_GLOBAL_L2, cluster_size=2)
    for name, stats in (("global", bfs_base), ("semi_global", semi)):
        print("  %-14s L2 miss %.1f%% | D turnaround %.0f | "
              "N turnaround %.0f | cycles %d"
              % (name, 100 * stats.l2_miss_ratio(),
                 stats.classes["D"].mean_turnaround(),
                 stats.classes["N"].mean_turnaround(), stats.cycles))


if __name__ == "__main__":
    main()
