"""Load generator: mix determinism and the end-to-end concurrency audit."""

import pytest

from repro.obs.metrics import isolated_registry
from repro.service.app import AnalysisService
from repro.service.http import ServiceServer
from repro.service.loadgen import default_mix, run_loadgen


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


class TestEndToEnd:
    @pytest.mark.parametrize("jobs, clients, workers, apps", [
        # 2 apps x 4 stages: jobs 8-9 repeat the first two requests
        # verbatim (the idempotency path)
        pytest.param(10, 4, 2, ["2mm", "bfs"], id="4-clients-2-workers"),
        # the service under concurrency: 8 clients over 4 workers;
        # jobs 16-19 repeat the first cycle of the 4 x 4 mix
        pytest.param(20, 8, 4, ["2mm", "bfs", "spmv", "mis"],
                     id="8-clients-4-workers"),
    ])
    def test_zero_lost_zero_duplicated(self, tmp_path, jobs, clients,
                                       workers, apps):
        """A concurrent run against a live server: every acked job
        exists exactly once server-side, none fail."""
        service = AnalysisService(tmp_path / "svc", workers=workers)
        service.start()
        server = ServiceServer(service, port=0)
        server.serve_background()
        try:
            report = run_loadgen(server.url, jobs=jobs, clients=clients,
                                 scale=0.05, apps=apps, timeout=120)
        finally:
            server.shutdown()
            server.server_close()
            service.stop()
        totals = report["totals"]
        assert totals["jobs"] == jobs
        assert totals["submit_errors"] == 0
        assert totals["lost"] == 0
        assert totals["duplicated"] == 0
        assert totals["failed"] == 0
        # the mix repeats requests on purpose: the repeats must be
        # served from the content-addressed store
        assert totals["result_cache_hits"] >= 1
