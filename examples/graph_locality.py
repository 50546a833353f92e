#!/usr/bin/env python
"""Hidden data locality in a graph application (Sections VIII-IX).

Runs ccl (connected-component labelling), then reproduces the paper's
locality analyses on its traces with the one trace-profile pass:
cold-miss ratio and block reuse (Figure 10), inter-CTA block sharing
(Figure 11), the CTA-distance histogram (Figure 12) — and finally shows
why the locality is "hidden": the L1 miss ratio stays high even though
blocks are heavily reused, because the reuse happens across CTAs on
*different* SMs.
"""

from repro import GPU, TESLA_C2050, get_workload
from repro.profiling import profile_trace

SCALE = 0.5


def main():
    workload = get_workload("ccl", scale=SCALE)
    run = workload.run()
    print("ran %s on %s (%d launches, %d warp instructions)"
          % (workload.name, workload.data_set, len(run.trace),
             run.trace.total_warp_instructions()))

    profile = profile_trace(run.trace, run.classifications)
    report = profile.locality

    print()
    print("Figure 10 view — block reuse")
    print("  cold-miss ratio:            %.1f%%"
          % (100 * report.cold_miss_ratio))
    print("  mean accesses per block:    %.1f"
          % report.mean_accesses_per_block)

    print()
    print("Figure 11 view — inter-CTA sharing")
    print("  blocks touched by 2+ CTAs:  %.1f%%"
          % (100 * report.shared_block_ratio))
    print("  accesses to shared blocks:  %.1f%%"
          % (100 * report.shared_access_ratio))
    print("  mean CTAs per shared block: %.1f"
          % report.mean_ctas_per_shared_block)

    print()
    print("Figure 12 view — CTA distances (top 8)")
    fractions = sorted(report.distance_fractions().items(),
                       key=lambda kv: -kv[1])[:8]
    for distance, fraction in fractions:
        bar = "#" * int(round(fraction * 50))
        print("  distance %3d: %5.1f%% %s" % (distance, 100 * fraction, bar))

    print()
    print("The same pass's heat map (what `repro advise` diagnoses)")
    print(profile.heatmap.render(height=4))
    print("  N loads issue %d of the %d memory requests"
          % (profile.coalescing.requests["N"],
             sum(profile.coalescing.requests.values())))

    print()
    print("...but the locality is hidden from the private L1s:")
    gpu = GPU(TESLA_C2050.scaled(num_sms=4, num_partitions=2,
                                 l1_size=4 * 1024, l2_size=96 * 1024))
    stats = gpu.run_application(run.trace, run.classifications)
    for label in ("D", "N"):
        cls = stats.classes[label]
        print("  [%s] L1 miss ratio %.0f%%   L2 miss ratio %.0f%%"
              % (label, 100 * cls.l1_miss_ratio(),
                 100 * cls.l2_miss_ratio()))


if __name__ == "__main__":
    main()
