"""Section X.B ablation: clustered vs. round-robin CTA scheduling.

"It would be better to assign neighbouring two CTAs to the same SM
(i.e. CTA0 and CTA1 to SM0, CTA2 and CTA3 to SM1, ...) for better data
locality in L1 cache."  This module runs the same application trace
under both ``GPUConfig.cta_policy`` values and reports the L1 behaviour
delta.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.gpu import GPU


@dataclass(frozen=True)
class PolicyOutcome:
    """Headline metrics of one policy run."""

    policy: str
    cycles: int
    l1_miss_ratio: float
    l1_hits: int
    l1_misses: int
    reservation_fail_fraction: float

    @staticmethod
    def from_stats(policy, stats):
        total = stats.overall()
        return PolicyOutcome(
            policy=policy,
            cycles=stats.cycles,
            l1_miss_ratio=stats.l1_miss_ratio(),
            l1_hits=total.l1_hit + total.l1_hit_reserved,
            l1_misses=total.l1_miss,
            reservation_fail_fraction=stats.reservation_fail_fraction(),
        )


def run_policy(run, config, policy):
    """Simulate one application run under a CTA scheduling policy."""
    stats = GPU(config.scaled(cta_policy=policy)).run_application(
        run.trace, run.classifications)
    return PolicyOutcome.from_stats(policy, stats)


def compare_cta_policies(run, config):
    """Run round-robin and clustered scheduling on the same trace.

    Returns ``{policy_name: PolicyOutcome}``.
    """
    return {
        "round_robin": run_policy(run, config, "round_robin"),
        "clustered": run_policy(run, config, "clustered"),
    }
