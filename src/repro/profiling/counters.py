"""CUDA-Profiler-style counters (the paper's Table III).

The paper collects eight counters with the CUDA Profiler on the real
M2050.  We derive the same quantities from the emulator trace (for the
instruction counters) and the timing simulation (for the cache
counters).  L2 counters are reported per "slice pair", mirroring the
profiler's ``subp0``/``subp1`` split: even partitions map to slice 0,
odd to slice 1.
"""

from __future__ import annotations

from typing import Dict, Optional

#: descriptions straight out of Table III.
COUNTER_DESCRIPTIONS = {
    "gld_request": "Number of executed global load instructions per warp "
                   "in a SM",
    "shared_load": "Number of executed shared load instructions per warp "
                   "in a SM",
    "l1_global_load_hit": "Number of global load hits in L1 cache",
    "l1_global_load_miss": "Number of global load misses in L1 cache",
    "l2_subp0_read_hit_sectors": "Read requests from L1 that hit in slice 0 "
                                 "of L2 cache",
    "l2_subp1_read_hit_sectors": "Read requests from L1 that hit in slice 1 "
                                 "of L2 cache",
    "l2_subp0_read_sector_queries": "Read sector queries from L1 to slice 0 "
                                    "of L2 cache",
    "l2_subp1_read_sector_queries": "Read sector queries from L1 to slice 1 "
                                    "of L2 cache",
}


def collect_counters(run, stats=None):
    """Compute the Table III counters for one application run.

    Parameters
    ----------
    run:
        A :class:`repro.workloads.base.WorkloadRun` (trace-derived
        counters).
    stats:
        Optionally, the :class:`repro.sim.stats.SimStats` of a timing
        simulation of the same run (cache counters).  Without it the
        cache counters are reported as ``None``.

    Returns
    -------
    dict mapping counter name to value.
    """
    counters: Dict[str, Optional[int]] = {
        "gld_request": run.trace.global_load_warp_count(),
        "shared_load": run.trace.shared_load_warp_count(),
        "l1_global_load_hit": None,
        "l1_global_load_miss": None,
        "l2_subp0_read_hit_sectors": None,
        "l2_subp1_read_hit_sectors": None,
        "l2_subp0_read_sector_queries": None,
        "l2_subp1_read_sector_queries": None,
    }
    if stats is not None:
        total = stats.overall()
        counters["l1_global_load_hit"] = total.l1_hit + total.l1_hit_reserved
        counters["l1_global_load_miss"] = total.l1_miss
        l2_hit = total.l2_hit
        l2_total = l2_hit + total.l2_miss
        # the profiler splits its L2 counters across two subpartitions;
        # our partitions interleave 128 B lines, so an even/odd split is
        # the faithful mapping
        counters["l2_subp0_read_hit_sectors"] = l2_hit - l2_hit // 2
        counters["l2_subp1_read_hit_sectors"] = l2_hit // 2
        counters["l2_subp0_read_sector_queries"] = l2_total - l2_total // 2
        counters["l2_subp1_read_sector_queries"] = l2_total // 2
    return counters


def shared_per_global_ratio(run):
    """Figure 9's metric: shared-memory loads per global-memory load."""
    glob = run.trace.global_load_warp_count()
    if glob == 0:
        return 0.0
    return run.trace.shared_load_warp_count() / glob
