"""Request validation and deterministic job execution."""

import json

import pytest

from repro.emulator.machine import ENGINES
from repro.obs.metrics import isolated_registry
from repro.service.jobs import KNOB_DEFAULTS, JobError, JobRequest
from repro.service.pipeline import (
    build_job_config,
    canonical_ptx,
    check_ptx_matches_app,
    execute_job,
)
from repro.workloads import get_workload


@pytest.fixture(autouse=True)
def _isolated(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_TRACE_CACHE_DIR", str(tmp_path / "traces"))
    with isolated_registry():
        yield


class TestRequestValidation:
    def test_defaults_mirror_simulate_cli(self):
        """The service's knob surface is the `repro simulate` CLI's —
        renaming a CLI default without updating the service (or vice
        versa) silently forks the timing numbers."""
        assert KNOB_DEFAULTS == {
            "sms": 4, "partitions": 2, "l1_kb": 2, "l2_kb": 64,
            "scheduler": "lrr", "prefetcher": "none",
            "cta_policy": "round_robin", "top": 8,
        }

    def test_cli_and_service_build_one_config(self):
        """``repro simulate`` flags and job knobs go through the same
        config builder, so equal knobs give equal configs."""
        from repro.cli import _build_parser

        args = _build_parser().parse_args(
            ["simulate", "bfs", "--sms", "2", "--cta-policy", "clustered"])
        request = JobRequest.from_json(
            {"app": "bfs", "knobs": {"sms": 2, "cta_policy": "clustered"}})
        config = build_job_config(vars(args))
        assert config == build_job_config(
            dict(KNOB_DEFAULTS, **dict(request.knobs)))
        assert (config.num_sms, config.cta_policy) == (2, "clustered")

    def test_every_emulator_engine_accepted(self):
        for engine in ENGINES:
            JobRequest.from_json({"app": "2mm", "engine": engine})

    def test_needs_app_or_ptx(self):
        with pytest.raises(JobError, match="needs an 'app'"):
            JobRequest.from_json({})

    def test_unknown_app(self):
        with pytest.raises(JobError, match="unknown app"):
            JobRequest.from_json({"app": "nope"})

    def test_unknown_field(self):
        with pytest.raises(JobError, match="unknown request field"):
            JobRequest.from_json({"app": "2mm", "bogus": 1})

    def test_bad_knobs(self):
        for knobs in ({"bogus": 1}, {"sms": 0}, {"sms": True},
                      {"scheduler": "fifo"}):
            with pytest.raises(JobError):
                JobRequest.from_json({"app": "2mm", "knobs": knobs})

    def test_bad_engine_and_races(self):
        with pytest.raises(JobError, match="unknown engine"):
            JobRequest.from_json({"app": "2mm", "engine": "cuda"})
        with pytest.raises(JobError, match="unknown races mode"):
            JobRequest.from_json({"app": "2mm", "races": "always"})

    def test_ptx_only_must_be_static(self):
        ptx = get_workload("2mm", scale=0.1).ptx()
        with pytest.raises(JobError, match="static analysis only"):
            JobRequest.from_json({"ptx": ptx})
        JobRequest.from_json({"ptx": ptx, "simulate": False})

    def test_tenant_priority_pass_through(self):
        request = JobRequest.from_json(
            {"app": "2mm", "tenant": "t", "priority": 3})
        assert "tenant" not in request.canonical()

    def test_key_is_content_addressed(self):
        a = JobRequest.from_json({"app": "2mm", "scale": 0.1})
        b = JobRequest.from_json({"app": "2mm", "scale": 0.1,
                                  "knobs": {}})
        c = JobRequest.from_json({"app": "2mm", "scale": 0.2})
        assert a.key() == b.key()
        assert a.key() != c.key()

    def test_key_tracks_tool_versions(self, monkeypatch):
        request = JobRequest.from_json({"app": "2mm"})
        before = request.key()
        import repro.emulator.machine as machine

        monkeypatch.setattr(machine, "EMULATOR_VERSION",
                            machine.EMULATOR_VERSION + 1)
        assert request.key() != before


class TestPtxHandling:
    def test_canonical_ptx_roundtrip(self):
        ptx = get_workload("2mm", scale=0.1).ptx()
        canon = canonical_ptx(ptx)
        assert canonical_ptx(canon) == canon

    def test_canonical_ptx_rejects_garbage(self):
        with pytest.raises(JobError):
            canonical_ptx("this is not ptx {{{")

    def test_ptx_app_mismatch_is_job_error(self):
        bfs_ptx = get_workload("bfs", scale=0.1).ptx()
        request = JobRequest.from_json({"app": "2mm", "ptx": bfs_ptx})
        with pytest.raises(JobError, match="does not match"):
            check_ptx_matches_app(request)

    def test_ptx_app_match_accepted(self):
        ptx = get_workload("2mm", scale=0.25).ptx()
        request = JobRequest.from_json({"app": "2mm", "ptx": ptx})
        check_ptx_matches_app(request)


class TestExecution:
    def test_payload_is_deterministic_across_cache_states(self):
        """Byte-identical payloads cold (emulated) and warm (trace-cache
        hit) — the property that makes results content-addressable."""
        request = JobRequest.from_json(
            {"app": "2mm", "scale": 0.1, "races": "interval",
             "advise": True})
        cold = execute_job(request)
        warm = execute_job(request)
        dump = lambda p: json.dumps(p, sort_keys=True)  # noqa: E731
        assert dump(cold) == dump(warm)

    def test_payload_shape(self):
        request = JobRequest.from_json({"app": "bfs", "scale": 0.1})
        payload = execute_job(request, use_trace_cache=False)
        assert payload["schema"] == 1
        assert payload["kind"] == "app"
        assert payload["request"] == request.canonical()
        assert payload["engine"] == "vectorized"
        kernels = payload["classification"]["kernels"]
        assert kernels and all("loads" in k for k in kernels)
        sim = payload["simulation"]
        assert sim["cycles"] > 0
        assert sim["text"].startswith("bfs simulated:")
        assert payload["races"] is None
        assert payload["advise"] is None

    def test_static_only_payload(self):
        ptx = get_workload("2mm", scale=0.1).ptx()
        request = JobRequest.from_json({"ptx": ptx, "simulate": False})
        payload = execute_job(request)
        assert payload["kind"] == "static"
        assert payload["simulation"] is None
        assert payload["verification"]["errors"] == 0
        assert payload["classification"]["kernels"]

    def test_races_and_advise_sections(self):
        request = JobRequest.from_json(
            {"app": "bfs", "scale": 0.1, "races": "interval",
             "advise": True, "simulate": False})
        payload = execute_job(request)
        assert payload["races"]["mode"] == "interval"
        assert "text" in payload["races"]
        assert payload["advise"]["verified"] is False
        assert "recommendation" in payload["advise"]

    def test_no_wall_clock_in_payload(self):
        """Payload determinism bans timestamps/hostnames anywhere in
        the result body (timings live on the JobRecord instead)."""
        request = JobRequest.from_json({"app": "2mm", "scale": 0.1})
        blob = json.dumps(execute_job(request)).lower()
        for banned in ("timestamp", "hostname", "submitted_at",
                       "wall_seconds", "elapsed"):
            assert banned not in blob
