#!/usr/bin/env python
"""Quickstart: classify, execute and simulate one GPU application.

Runs the paper's flagship example (bfs) end to end:

1. parse its PTX-subset kernels,
2. classify every global load with backward dataflow analysis
   (deterministic vs. non-deterministic — the paper's Section V),
3. execute the application functionally to produce warp traces,
4. replay the traces through the cycle-level GPU model (Table II config),
5. print the headline per-class statistics the paper reports.
"""

from repro import GPU, TESLA_C2050, get_workload
from repro.core import format_kernel_report
from repro.profiling import class_breakdown

SCALE = 0.25  # small input so the quickstart finishes in seconds


def main():
    print("=" * 72)
    print("Simulated GPU (Table II, Tesla C2050)")
    print("=" * 72)
    # SM count and cache capacities are scaled along with the inputs so
    # the scaled working sets stress the hierarchy the way the paper's
    # full-size inputs stress the real 16 KB L1 (DESIGN.md section 6)
    config = TESLA_C2050.scaled(num_sms=4, num_partitions=2,
                                l1_size=2 * 1024, l1_mshr_entries=32,
                                l2_size=64 * 1024, l2_mshr_entries=16)
    print("SMs: %d   L1D: %dKB/%d-way (%d MSHRs)   L2: %dKB x%d slices"
          % (config.num_sms, config.l1_size // 1024, config.l1_assoc,
             config.l1_mshr_entries, config.l2_slice_size // 1024,
             config.num_partitions))
    print("ROP latency: %d   DRAM latency: %d   unloaded miss: %d cycles"
          % (config.rop_latency, config.dram_latency,
             config.unloaded_miss_latency))

    print()
    print("=" * 72)
    print("1-2. Load classification (backward dataflow, Section V)")
    print("=" * 72)
    workload = get_workload("bfs", scale=SCALE)
    run = workload.run()  # parses, classifies, emulates AND verifies
    for kernel_name, result in run.classifications.items():
        counts = run.trace.dynamic_counts_by_pc(kernel_name)
        print(format_kernel_report(result, counts))
        print()

    det, nondet = run.dynamic_class_split()
    print("dynamic split over the whole run: %d deterministic / "
          "%d non-deterministic warp loads" % (det, nondet))

    print()
    print("=" * 72)
    print("3-4. Timing simulation")
    print("=" * 72)
    stats = GPU(config).run_application(run.trace, run.classifications)
    print("simulated %d warp instructions in %d cycles"
          % (stats.issued_warp_insts, stats.cycles))

    print()
    print("=" * 72)
    print("5. Per-class behaviour (the paper's key disparity)")
    print("=" * 72)
    for label in ("D", "N"):
        cls = stats.classes[label]
        breakdown = class_breakdown(stats, config, label)
        print("[%s] %5d warp loads | %.2f requests/warp | "
              "L1 miss %.0f%% | mean turnaround %.0f cycles "
              "(own-request stalls: %.0f)"
              % (label, cls.warp_insts, cls.requests_per_warp(),
                 100 * cls.l1_miss_ratio(), breakdown.total,
                 breakdown.rsrv_current_warp))
    fails = stats.reservation_fail_fraction()
    print("\nL1 cache cycles wasted on reservation failures: %.0f%%"
          % (100 * fails))


if __name__ == "__main__":
    main()
