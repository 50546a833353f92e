"""Unit tests for the statistics container."""

import pytest

from repro.sim.cache import Outcome
from repro.sim.stats import ClassStats, SimStats, class_label


class TestClassLabel:
    def test_normalization(self):
        assert class_label("D") == "D"
        assert class_label("N") == "N"
        assert class_label(None) == "other"
        assert class_label("weird") == "other"


class TestClassStats:
    def test_ratios(self):
        cls = ClassStats(warp_insts=4, requests=12, active_threads=96,
                         l1_hit=3, l1_hit_reserved=1, l1_miss=4,
                         l2_hit=1, l2_miss=3)
        assert cls.requests_per_warp() == 3.0
        assert cls.requests_per_active_thread() == 0.125
        assert cls.l1_accesses() == 8
        assert cls.l1_miss_ratio() == 0.5
        assert cls.l2_miss_ratio() == 0.75

    def test_empty_ratios_are_zero(self):
        cls = ClassStats()
        assert cls.requests_per_warp() == 0.0
        assert cls.l1_miss_ratio() == 0.0
        assert cls.mean_turnaround() == 0.0

    def test_merge(self):
        a = ClassStats(warp_insts=1, requests=2)
        b = ClassStats(warp_insts=3, requests=4)
        a.merge(b)
        assert a.warp_insts == 4
        assert a.requests == 6


class TestSimStats:
    def test_overall_miss_ratios_sum_every_class(self):
        stats = SimStats()
        stats.classes["D"] = ClassStats(l1_hit=3, l1_hit_reserved=1,
                                        l1_miss=1, l2_hit=1, l2_miss=0)
        stats.classes["N"] = ClassStats(l1_hit=0, l1_miss=4,
                                        l2_hit=1, l2_miss=2)
        stats.classes["other"] = ClassStats(l1_hit=1, l2_miss=1)
        assert stats.overall().l1_miss == 5
        assert stats.l1_miss_ratio() == 5 / 10
        assert stats.l2_miss_ratio() == 3 / 5
        assert SimStats().l1_miss_ratio() == SimStats().l2_miss_ratio() \
            == 0.0

    def test_l1_cycle_fractions(self):
        stats = SimStats()
        for _ in range(3):
            stats.record_l1_cycle(Outcome.HIT, "D")
        stats.record_l1_cycle(Outcome.RSRV_FAIL_TAGS, "N")
        fr = stats.l1_cycle_fractions()
        assert fr[Outcome.HIT] == pytest.approx(0.75)
        assert fr[Outcome.RSRV_FAIL_TAGS] == pytest.approx(0.25)
        assert stats.reservation_fail_fraction() == pytest.approx(0.25)

    def test_l1_cycles_by_class(self):
        stats = SimStats()
        stats.record_l1_cycle(Outcome.MISS, "N")
        stats.record_l1_cycle(Outcome.MISS, None)
        assert stats.l1_cycles_by_class["N"][Outcome.MISS] == 1
        assert stats.l1_cycles_by_class["other"][Outcome.MISS] == 1

    def test_coalescing_record(self):
        stats = SimStats()
        stats.record_coalescing("N", 8, 20)
        cls = stats.classes["N"]
        assert cls.warp_insts == 1
        assert cls.requests == 8
        assert cls.active_threads == 20

    def test_idle_fractions(self):
        stats = SimStats()
        stats.active_sm_cycles = 100
        stats.unit_busy["sp"] = 25
        stats.unit_busy["ldst"] = 90
        idle = stats.unit_idle_fractions()
        assert idle["sp"] == pytest.approx(0.75)
        assert idle["ldst"] == pytest.approx(0.10)
        assert idle["sfu"] == pytest.approx(1.0)

    def test_idle_with_no_cycles(self):
        assert SimStats().unit_idle_fractions()["sp"] == 1.0

    def test_load_completion_buckets(self):
        stats = SimStats()
        stats.record_load_completion("k", 0x110, "N", 4, 500, 100, 50,
                                     20, 30)
        stats.record_load_completion("k", 0x110, "N", 4, 700, 100, 50,
                                     20, 30)
        series = stats.pc_series("k", 0x110)
        assert len(series) == 1
        n_req, bucket = series[0]
        assert n_req == 4
        assert bucket.count == 2
        assert bucket.mean("turnaround_sum") == 600.0
        cls = stats.classes["N"]
        assert cls.completed == 2
        assert cls.mean_turnaround() == 600.0
        assert cls.mean_wait_prev() == 100.0
        assert cls.mean_wait_cur() == 50.0

    def test_pc_series_sorted_by_request_count(self):
        stats = SimStats()
        stats.record_load_completion("k", 8, "N", 7, 1, 0, 0, 0, 0)
        stats.record_load_completion("k", 8, "N", 2, 1, 0, 0, 0, 0)
        assert [n for n, _b in stats.pc_series("k", 8)] == [2, 7]
