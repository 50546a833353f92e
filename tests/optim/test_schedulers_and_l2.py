"""Tests for the CTA-scheduling and semi-global-L2 ablations."""

import pytest

from repro.optim import CTA_CLUSTERED, SEMI_GLOBAL_L2, configure, simulate
from repro.sim.config import TINY
from repro.sim.gpu import GPU


def l1_accesses(stats):
    total = stats.overall()
    return total.l1_hit + total.l1_hit_reserved + total.l1_miss


class TestCTAPolicies:
    def test_both_policies_complete(self, twomm_run):
        for transform in (None, CTA_CLUSTERED):
            stats = simulate(twomm_run, TINY, transform)
            assert stats.cycles > 0
            assert 0.0 <= stats.l1_miss_ratio() <= 1.0

    def test_same_work_under_both_policies(self, bfs_run):
        rr = simulate(bfs_run, TINY)
        cl = simulate(bfs_run, TINY, CTA_CLUSTERED)
        assert l1_accesses(rr) == l1_accesses(cl)

    def test_clustered_overrides_only_the_policy(self):
        config, rewrite = configure(CTA_CLUSTERED, TINY)
        assert TINY.cta_policy == "round_robin"
        assert config == TINY.scaled(cta_policy="clustered")
        assert rewrite is None


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
        for transform in (None, SEMI_GLOBAL_L2):
            stats = simulate(twomm_run, TINY, transform, cluster_size=1)
            assert stats.cycles > 0
            assert 0.0 <= stats.l2_miss_ratio() <= 1.0
            assert stats.dram_reads > 0
