"""Per-point metric extraction: SimStats -> a flat dict of numbers.

Every sweep point stores the same named scalar metrics, computed here
from the simulator's :class:`~repro.sim.stats.SimStats`.  Definitions
deliberately mirror the original ablation benchmarks and figure
renderers (so a sweep over the committed specs reproduces their
numbers exactly):

* ``l1_miss_ratio`` and ``l2_miss_ratio`` are
  :meth:`SimStats.l1_miss_ratio` / :meth:`SimStats.l2_miss_ratio`
  (over all classes, ``hit + hit_reserved`` counting as L1 hits), the
  same methods the CTA-policy and semi-global-L2 ablations report;
* the per-class ratios (``d_l1_miss_ratio``, ...) are exactly the
  Figure 8 series.

Everything here is a deterministic count or a ratio of counts — no
wall-clock — so two runs of the same point produce byte-identical
metric dicts (the property sweep resumability and shard merging are
built on).
"""

from __future__ import annotations

#: all extractable metrics, in report-column order.
METRIC_NAMES = (
    "cycles",
    "issued_warp_insts",
    "l1_miss_ratio",
    "l2_miss_ratio",
    "d_l1_miss_ratio",
    "d_l2_miss_ratio",
    "n_l1_miss_ratio",
    "n_l2_miss_ratio",
    "d_turnaround",
    "n_turnaround",
    "d_req_per_warp",
    "n_req_per_warp",
    "reservation_fail_fraction",
    "dram_reads",
)


def collect_metrics(stats, names=None):
    """Extract ``names`` (default: all of :data:`METRIC_NAMES`) from
    one simulation's stats as a plain ``{name: number}`` dict."""
    d = stats.classes["D"]
    n = stats.classes["N"]
    values = {
        "cycles": int(stats.cycles),
        "issued_warp_insts": int(stats.issued_warp_insts),
        "l1_miss_ratio": stats.l1_miss_ratio(),
        "l2_miss_ratio": stats.l2_miss_ratio(),
        "d_l1_miss_ratio": d.l1_miss_ratio(),
        "d_l2_miss_ratio": d.l2_miss_ratio(),
        "n_l1_miss_ratio": n.l1_miss_ratio(),
        "n_l2_miss_ratio": n.l2_miss_ratio(),
        "d_turnaround": d.mean_turnaround(),
        "n_turnaround": n.mean_turnaround(),
        "d_req_per_warp": d.requests_per_warp(),
        "n_req_per_warp": n.requests_per_warp(),
        "reservation_fail_fraction": stats.reservation_fail_fraction(),
        "dram_reads": int(stats.dram_reads),
    }
    if names is None:
        names = METRIC_NAMES
    return {name: values[name] for name in names}


__all__ = ["METRIC_NAMES", "collect_metrics"]
