"""The bridge publishes *exactly* the figures' inputs.

Each test recomputes a figure's data from the metrics-registry series
alone and asserts equality with the ``repro.experiments.figures``
functions computed from the live objects — value for value, not
approximately.
"""

import pytest

from repro.experiments.figures import (
    fig1_data,
    fig2_data,
    fig3_data,
    fig8_data,
)
from repro.obs.bridge import (
    publish_locality,
    publish_result,
    publish_sim,
    publish_trace,
)
from repro.obs.metrics import MetricsRegistry
from repro.sim.cache import Outcome
from repro.sim.stats import CLASS_LABELS


@pytest.fixture(scope="module")
def bfs_result(test_runner):
    return test_runner.result("bfs")


@pytest.fixture(scope="module")
def registry(bfs_result):
    reg = MetricsRegistry()
    publish_result(bfs_result, reg)
    return reg


class TestFig1Correspondence:
    def test_dynamic_split_counters_reproduce_fig1(self, bfs_result,
                                                   registry):
        counter = registry.get("app.loads.dynamic")
        det = counter.value(app="bfs", load_category="D")
        nondet = counter.value(app="bfs", load_category="N")
        assert (det, nondet) == bfs_result.run.dynamic_class_split()
        total = det + nondet
        expected = fig1_data([bfs_result])["bfs"]
        assert (det / total, nondet / total) == expected


class TestFig2Correspondence:
    def test_requests_per_warp_and_thread(self, bfs_result, registry):
        expected = fig2_data([bfs_result])["bfs"]
        requests = registry.get("sim.class.requests")
        warps = registry.get("sim.class.warp_insts")
        threads = registry.get("sim.class.active_threads")
        for label in ("N", "D"):
            req = requests.value(app="bfs", load_category=label)
            per_warp = req / warps.value(app="bfs", load_category=label)
            per_thread = req / threads.value(app="bfs",
                                             load_category=label)
            assert (per_warp, per_thread) == expected[label]


class TestFig3Correspondence:
    def test_l1_cycle_fractions(self, bfs_result, registry):
        expected = fig3_data([bfs_result])["bfs"]
        counter = registry.get("sim.l1.cycles")
        by_outcome = {
            o: sum(counter.value(app="bfs", load_category=label,
                                 outcome=o.value)
                   for label in CLASS_LABELS)
            for o in Outcome}
        total = sum(by_outcome.values())
        assert total > 0
        for outcome, fraction in expected.items():
            assert by_outcome[Outcome(outcome)] / total == fraction


class TestFig8Correspondence:
    def test_miss_ratios(self, bfs_result, registry):
        expected = fig8_data([bfs_result])["bfs"]
        for label in ("N", "D"):
            def val(metric):
                return registry.get(metric).value(app="bfs",
                                                  load_category=label)
            l1_total = (val("sim.class.l1_hit")
                        + val("sim.class.l1_hit_reserved")
                        + val("sim.class.l1_miss"))
            l1_ratio = (val("sim.class.l1_miss") / l1_total
                        if l1_total else 0.0)
            l2_total = val("sim.class.l2_hit") + val("sim.class.l2_miss")
            l2_ratio = (val("sim.class.l2_miss") / l2_total
                        if l2_total else 0.0)
            assert (l1_ratio, l2_ratio) == expected[label]


class TestTracePublishing:
    def test_trace_counters_match_trace(self, bfs_result):
        reg = MetricsRegistry()
        publish_trace("bfs", bfs_result.run, bfs_result.coalescing, reg)
        trace = bfs_result.run.trace
        assert reg.get("app.trace.launches").value(app="bfs") \
            == len(trace)
        assert reg.get("app.trace.warp_insts").value(app="bfs") \
            == trace.total_warp_instructions()
        assert reg.get("app.trace.global_loads").value(app="bfs") \
            == trace.global_load_warp_count()

    def test_coalescing_series_cover_all_classes(self, registry):
        warp_loads = registry.get("app.coalescing.warp_loads")
        for label in CLASS_LABELS:
            assert ("app=bfs,load_category=%s" % label) \
                in warp_loads.labels()


class TestSimPublishing:
    def test_scalar_fields_and_cycles_gauge(self, bfs_result):
        reg = MetricsRegistry()
        publish_sim("bfs", bfs_result.stats, reg)
        stats = bfs_result.stats
        assert reg.get("sim.issued_warp_insts").value(app="bfs") \
            == stats.issued_warp_insts
        assert reg.get("sim.dram.reads").value(app="bfs") \
            == stats.dram_reads
        assert reg.get("sim.cycles").value(app="bfs") == stats.cycles

    def test_issue_stall_reasons(self, bfs_result, registry):
        counter = registry.get("sim.issue_stall_cycles")
        for reason, cycles in bfs_result.stats.issue_stall.items():
            assert counter.value(app="bfs", reason=reason) == cycles


class TestLocalityPublishing:
    def test_gauges_match_report(self, bfs_result):
        reg = MetricsRegistry()
        publish_locality("bfs", bfs_result.locality, reg)
        loc = bfs_result.locality
        assert reg.get("locality.cold_miss_ratio").value(app="bfs") \
            == loc.cold_miss_ratio
        assert reg.get("locality.shared_block_ratio").value(app="bfs") \
            == loc.shared_block_ratio


class TestPublishResult:
    def test_without_stats_skips_sim_series(self, bfs_result):
        reg = MetricsRegistry()

        class NoSim:
            ok = True
            name = bfs_result.name
            run = bfs_result.run
            stats = None
            locality = bfs_result.locality
            coalescing = bfs_result.coalescing

        publish_result(NoSim(), reg)
        assert "app.loads.dynamic" in reg
        assert "sim.class.requests" not in reg
        assert "locality.cold_miss_ratio" in reg

    def test_determinism_of_published_snapshot(self, bfs_result):
        def snap():
            reg = MetricsRegistry()
            publish_result(bfs_result, reg)
            return reg.snapshot()

        assert snap() == snap()
