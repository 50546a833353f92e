#!/usr/bin/env python
"""Trace-driven experimentation: emulate once, simulate many times.

Functional emulation is the slow half of the pipeline.  This example
saves a bfs run to a self-contained trace file (kernels + traces +
classifications), reloads it, and sweeps timing configurations over the
*same* trace — the standard trace-driven simulator workflow.
"""

import os
import tempfile

from repro import TESLA_C2050, GPU, get_workload
from repro.emulator import load_run, save_run

SCALE = 0.5


def simulate(trace, classifications, config):
    return GPU(config).run_application(trace, classifications)


def main():
    print("emulating bfs once (the expensive step)...")
    run = get_workload("bfs", scale=SCALE).run()
    path = os.path.join(tempfile.gettempdir(), "bfs.trace")
    save_run(run, path)
    size_kb = os.path.getsize(path) / 1024
    print("saved %d warp instructions to %s (%.0f KB)"
          % (run.trace.total_warp_instructions(), path, size_kb))

    print("\nreloading and sweeping L1 configurations over the trace:")
    loaded = load_run(path)
    base = TESLA_C2050.scaled(num_sms=4, num_partitions=2,
                              l2_size=64 * 1024)
    print("%10s %10s %14s %12s" % ("L1 size", "MSHRs", "N L1 miss",
                                   "cycles"))
    for l1_kb, mshrs in ((1, 16), (2, 32), (4, 32), (8, 64)):
        config = base.scaled(l1_size=l1_kb * 1024, l1_mshr_entries=mshrs)
        stats = simulate(loaded.trace, loaded.classifications, config)
        print("%9dK %10d %13.0f%% %12d"
              % (l1_kb, mshrs,
                 100 * stats.classes["N"].l1_miss_ratio(), stats.cycles))

    os.remove(path)
    print("\n(the loaded trace re-derives classifications from the "
          "embedded PTX, so the file is fully self-contained)")


if __name__ == "__main__":
    main()
