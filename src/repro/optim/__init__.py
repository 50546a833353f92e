"""Section X's suggested microarchitectural optimizations as runnable
ablations.

Machine organizations are :class:`~repro.sim.config.GPUConfig` fields:
clustered CTA scheduling is ``cta_policy="clustered"`` and semi-global
L2 caches are ``l2_clusters=n``.  Trace transforms (sub-warp splitting
and perfect coalescing of non-deterministic loads) are per-launch
rewrites handed to :meth:`~repro.sim.gpu.GPU.run_application`.  Each
``compare_*`` helper simulates a baseline and the alternative.
"""

from .coalesce_oracle import (
    CoalesceOutcome,
    coalesced_launch,
    compare_perfect_coalescing,
)
from .cta_clustered import PolicyOutcome, compare_cta_policies, run_policy
from .semi_global_l2 import L2Outcome, compare_l2_organizations
from .warp_split import (
    SplitOutcome,
    compare_warp_splitting,
    split_launch,
    split_op,
)

__all__ = [
    "CoalesceOutcome",
    "coalesced_launch",
    "compare_perfect_coalescing",
    "PolicyOutcome",
    "compare_cta_policies",
    "run_policy",
    "L2Outcome",
    "compare_l2_organizations",
    "SplitOutcome",
    "compare_warp_splitting",
    "split_launch",
    "split_op",
]
