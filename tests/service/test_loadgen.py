"""Load generator: mix determinism, percentiles, end-to-end audit."""

import pytest

from repro.obs.metrics import isolated_registry
from repro.service.app import AnalysisService
from repro.service.http import ServiceServer
from repro.service.loadgen import _percentile, default_mix, run_loadgen


@pytest.fixture(autouse=True)
def _isolated(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_TRACE_CACHE_DIR", str(tmp_path / "traces"))
    with isolated_registry():
        yield


class TestDefaultMix:
    def test_cycles_apps_then_stages(self):
        mix = default_mix(5, apps=["a", "b"], scale=0.1)
        assert [m["app"] for m in mix] == ["a", "b", "a", "b", "a"]
        assert "races" not in mix[0] and "races" not in mix[1]
        assert mix[2]["races"] == "interval"  # second cycle: stage 1
        assert mix[4]["simulate"] is False    # third cycle: stage 2

    def test_deterministic(self):
        assert default_mix(12, apps=["x"], scale=0.2) \
            == default_mix(12, apps=["x"], scale=0.2)

    def test_defaults_to_table1_suite(self):
        mix = default_mix(15)
        assert len({m["app"] for m in mix}) == 15


class TestPercentile:
    def test_nearest_rank(self):
        values = sorted(float(v) for v in range(1, 101))
        assert _percentile(values, 0.50) == 50.0
        assert _percentile(values, 0.95) == 95.0
        assert _percentile(values, 0.99) == 99.0

    def test_small_and_empty(self):
        assert _percentile([], 0.95) == 0.0
        assert _percentile([7.0], 0.5) == 7.0
        assert _percentile([7.0], 0.99) == 7.0


class TestEndToEnd:
    def test_zero_lost_zero_duplicated(self, tmp_path):
        """A small concurrent run against a live server: every acked
        job exists exactly once server-side, none fail."""
        service = AnalysisService(tmp_path / "svc", workers=2)
        service.start()
        server = ServiceServer(service, port=0)
        server.serve_background()
        try:
            # 10 jobs over 2 apps x 4 stages: indices 8-9 repeat the
            # first two requests verbatim (the idempotency path)
            report = run_loadgen(server.url, jobs=10, clients=4,
                                 scale=0.05, apps=["2mm", "bfs"],
                                 timeout=120)
        finally:
            server.shutdown()
            server.server_close()
            service.stop()
        totals = report["totals"]
        assert totals["jobs"] == 10
        assert totals["submit_errors"] == 0
        assert totals["lost"] == 0
        assert totals["duplicated"] == 0
        assert totals["failed"] == 0
        # the mix repeats requests on purpose: the repeats must be
        # served from the content-addressed store
        assert totals["result_cache_hits"] >= 1
        assert report["latency_ms"]["p50"] > 0
        assert report["latency_ms"]["p99"] >= report["latency_ms"]["p50"]
        assert totals["jobs_per_sec"] > 0
