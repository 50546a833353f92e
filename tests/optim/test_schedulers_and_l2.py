"""Tests for the CTA-scheduling and semi-global-L2 ablations."""

import pytest

from repro.optim.cta_clustered import compare_cta_policies, run_policy
from repro.optim.semi_global_l2 import compare_l2_organizations
from repro.sim.config import TINY
from repro.sim.gpu import GPU


class TestCTAPolicies:
    def test_both_policies_complete(self, twomm_run):
        outcomes = compare_cta_policies(twomm_run, TINY)
        assert set(outcomes) == {"round_robin", "clustered"}
        for outcome in outcomes.values():
            assert outcome.cycles > 0
            assert 0.0 <= outcome.l1_miss_ratio <= 1.0

    def test_same_work_under_both_policies(self, bfs_run):
        outcomes = compare_cta_policies(bfs_run, TINY)
        rr, cl = outcomes["round_robin"], outcomes["clustered"]
        assert rr.l1_hits + rr.l1_misses == cl.l1_hits + cl.l1_misses

    def test_run_policy_single(self, twomm_run):
        outcome = run_policy(twomm_run, TINY, "round_robin")
        assert outcome.policy == "round_robin"


class TestSemiGlobalL2:
    def test_partition_mapping_confined_to_cluster(self):
        gpu = GPU(TINY.scaled(l2_clusters=1))
        # TINY: 2 SMs, 2 partitions -> each SM owns one slice
        for block in range(0, 4096, 128):
            assert gpu.partition_of(0, block) == 0
            assert gpu.partition_of(1, block) == 1

    def test_global_l2_mapping_ignores_the_sm(self):
        config = TINY.scaled(num_sms=4, num_partitions=4)
        gpu = GPU(config)
        line = config.l1_line_size
        for sm in range(config.num_sms):
            for block in range(0, 64 * line, 96):
                assert gpu.partition_of(sm, block) == \
                    (block // line) % config.num_partitions

    def test_invalid_cluster_size(self):
        with pytest.raises(ValueError, match="must divide num_sms"):
            TINY.scaled(l2_clusters=3).validate()
        with pytest.raises(ValueError):
            GPU(TINY.scaled(l2_clusters=3))

    def test_icnt_latency_reduced(self):
        gpu = GPU(TINY.scaled(l2_clusters=1))
        latency = max(1, TINY.icnt_latency // 2)
        assert gpu.req_icnt.latency == gpu.resp_icnt.latency == latency
        assert GPU(TINY).req_icnt.latency == TINY.icnt_latency

    def test_comparison_completes(self, twomm_run):
        outcomes = compare_l2_organizations(twomm_run, TINY, cluster_size=1)
        assert set(outcomes) == {"global", "semi_global"}
        for outcome in outcomes.values():
            assert outcome.cycles > 0
            assert 0.0 <= outcome.l2_miss_ratio <= 1.0
            assert outcome.dram_reads > 0
