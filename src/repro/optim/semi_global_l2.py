"""Section X.C ablation: semi-global L2 caches.

"As adjacent two to five CTAs share data blocks, a shared L2 cache that
spans only a few SMs, rather than sharing across all SMs, can reduce
interconnection costs and improve access latency."

Model (``GPUConfig.l2_clusters``): SMs are grouped into clusters; each
cluster owns an equal share of the L2 partitions and its requests go
only to that share, over a shorter interconnect.  Capacity per cluster
shrinks correspondingly (same total silicon), so the experiment
measures the locality-vs-capacity trade the paper hypothesizes about.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.gpu import GPU


@dataclass(frozen=True)
class L2Outcome:
    """Headline metrics for one L2 organization."""

    label: str
    cycles: int
    l2_miss_ratio: float
    mean_d_turnaround: float
    mean_n_turnaround: float
    dram_reads: int


def _outcome(label, stats):
    return L2Outcome(
        label=label,
        cycles=stats.cycles,
        l2_miss_ratio=stats.l2_miss_ratio(),
        mean_d_turnaround=stats.classes["D"].mean_turnaround(),
        mean_n_turnaround=stats.classes["N"].mean_turnaround(),
        dram_reads=stats.dram_reads,
    )


def compare_l2_organizations(run, config, cluster_size=2):
    """Simulate an application under global and semi-global L2.

    Returns ``{"global": L2Outcome, "semi_global": L2Outcome}``.
    """
    baseline = GPU(config.scaled(l2_clusters=0)).run_application(
        run.trace, run.classifications)
    semi = GPU(config.scaled(l2_clusters=cluster_size)).run_application(
        run.trace, run.classifications)
    return {
        "global": _outcome("global L2", baseline),
        "semi_global": _outcome(
            "semi-global L2 (cluster=%d)" % cluster_size, semi),
    }
