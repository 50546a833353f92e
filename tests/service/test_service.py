"""Service facade + HTTP layer: codes, crashes, idempotency."""

import json
import urllib.error
import urllib.request

import pytest

from repro.obs.metrics import isolated_registry
from repro.service.app import AnalysisService
from repro.service.http import ServiceServer
from repro.service.jobs import STATUS_DONE, STATUS_FAILED, JobError
from repro.service.pipeline import execute_job
from repro.service.worker import result_key_for
from repro.testing.faults import injected

BODY = {"app": "2mm", "scale": 0.1}


@pytest.fixture(autouse=True)
def _isolated(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_TRACE_CACHE_DIR", str(tmp_path / "traces"))
    with isolated_registry():
        yield


@pytest.fixture
def service(tmp_path):
    # workers=0: jobs run only when the test calls drain(), so every
    # assertion sees a deterministic queue state
    return AnalysisService(tmp_path / "svc", workers=0)


class TestFacade:
    def test_submit_drain_result(self, service):
        record = service.submit(dict(BODY))
        assert record.status == "queued"
        assert service.drain() == 1
        body = service.job_json(record.id)
        assert body["status"] == STATUS_DONE
        assert body["result"]["app"] == "2mm"
        assert body["wall_seconds"] >= 0

    def test_served_result_byte_identical_to_pipeline(self, service):
        """The HTTP-served payload is exactly execute_job's output —
        no checksum field, no storage artifacts leaking through."""
        record = service.submit(dict(BODY))
        service.drain()
        served = service.result_payload(service.queue.get(record.id))
        from repro.service.jobs import JobRequest

        direct = execute_job(JobRequest.from_json(dict(BODY)))
        assert json.dumps(served, sort_keys=True) \
            == json.dumps(direct, sort_keys=True)

    def test_idempotent_resubmission_hits_store(self, service):
        first = service.submit(dict(BODY))
        service.drain()
        again = service.submit(dict(BODY))
        assert again.status == STATUS_DONE
        assert again.result_cache == "hit"
        assert again.result_key == first.result_key \
            == result_key_for(first.request)
        assert service.queue.depth() == 0

    def test_bad_tenant_and_priority(self, service):
        with pytest.raises(JobError):
            service.submit(dict(BODY, tenant=""))
        with pytest.raises(JobError):
            service.submit(dict(BODY, priority="high"))
        with pytest.raises(JobError):
            service.submit([1, 2, 3])

    @pytest.mark.faults
    def test_worker_crash_contained_to_its_job(self, service):
        """An injected emulator fault fails one job with structured
        context; the queue keeps serving the next job."""
        doomed = service.submit({"app": "bfs", "scale": 0.1})
        healthy = service.submit(dict(BODY))
        with injected("bfs", "emulate"):
            assert service.drain() == 2
        failed = service.queue.get(doomed.id)
        assert failed.status == STATUS_FAILED
        assert "injected" in failed.error
        assert service.queue.get(healthy.id).status == STATUS_DONE

    @pytest.mark.faults
    def test_oom_fault_recorded_with_context(self, service):
        record = service.submit({"app": "bfs", "scale": 0.1})
        with injected("bfs", "emulate", kind="oom"):
            service.drain()
        failed = service.queue.get(record.id)
        assert failed.status == STATUS_FAILED
        assert failed.error_context is not None

    def test_convergence_failure_keeps_round_and_steps(self, service):
        # this input's Boruvka round 3 never converges (tests/workloads/
        # test_mst.py pins the same failure through the figure runner)
        record = service.submit({"app": "mst", "scale": 0.25, "seed": 2009})
        service.drain()
        failed = service.queue.get(record.id)
        assert failed.status == STATUS_FAILED
        assert failed.error.startswith("ConvergenceError")
        assert failed.error_context == {"round": 3, "steps": 257}

    def test_stats_shape(self, service):
        service.submit(dict(BODY))
        stats = service.stats()
        assert stats["depth"] == 1
        assert stats["jobs"] == {"queued": 1}
        assert stats["workers"] == 0

    def test_crash_recovery_resumes_and_result_short_circuits(
            self, tmp_path):
        """Worker dies after publishing the result but before the
        record flips to done: recovery re-queues, the re-run serves
        the already-stored result without re-emulating."""
        service = AnalysisService(tmp_path / "svc", workers=0)
        record = service.submit(dict(BODY))
        leased = service.queue.lease(timeout=0)
        assert leased.id == record.id
        # the worker got as far as publishing the result...
        from repro.resilience.artifacts import attach_checksum
        from repro.service.jobs import JobRequest

        payload = execute_job(JobRequest.from_json(dict(BODY)))
        service.store.put_json(result_key_for(leased.request),
                               attach_checksum(payload))
        # ...then the process dies.  A fresh service over the store:
        fresh = AnalysisService(tmp_path / "svc", workers=0)
        assert fresh.queue.recovered_ids == [record.id]
        assert fresh.drain() == 1
        done = fresh.queue.get(record.id)
        assert done.status == STATUS_DONE
        assert done.result_cache == "hit"
        assert done.recovered is True


class _Client:
    def __init__(self, base):
        self.base = base

    def request(self, method, path, body=None):
        data = json.dumps(body).encode() if body is not None else None
        req = urllib.request.Request(self.base + path, data=data,
                                     method=method)
        if data is not None:
            req.add_header("Content-Type", "application/json")
        try:
            with urllib.request.urlopen(req, timeout=30) as resp:
                return resp.status, resp.read().decode(), dict(
                    resp.headers)
        except urllib.error.HTTPError as err:
            return err.code, err.read().decode(), dict(err.headers)


@pytest.fixture
def http(tmp_path):
    service = AnalysisService(tmp_path / "svc", workers=0, quota=2)
    server = ServiceServer(service, port=0)
    server.serve_background()
    try:
        yield _Client(server.url), service
    finally:
        server.shutdown()
        server.server_close()


class TestHttp:
    def test_submit_poll_result_roundtrip(self, http):
        client, service = http
        status, body, headers = client.request("POST", "/kernels",
                                               dict(BODY))
        assert status == 201
        assert headers["Content-Type"].startswith("application/json")
        job = json.loads(body)
        assert job["status"] == "queued"
        assert "request" not in job
        service.drain()
        status, body, _ = client.request("GET", "/jobs/%s" % job["id"])
        assert status == 200
        done = json.loads(body)
        assert done["status"] == STATUS_DONE
        assert done["result"]["simulation"]["cycles"] > 0
        # ?result=0 strips the payload
        status, body, _ = client.request(
            "GET", "/jobs/%s?result=0" % job["id"])
        assert "result" not in json.loads(body)

    def test_error_codes(self, http):
        client, service = http
        # 400: malformed request
        status, body, _ = client.request("POST", "/kernels",
                                         {"app": "nope"})
        assert status == 400
        assert "unknown app" in json.loads(body)["error"]
        # 400: not JSON at all
        req = urllib.request.Request(
            client.base + "/kernels", data=b"not json", method="POST")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=30)
        assert err.value.code == 400
        # 404s
        assert client.request("GET", "/jobs/j999999")[0] == 404
        assert client.request("GET", "/bogus")[0] == 404
        assert client.request("POST", "/bogus")[0] == 404

    def test_quota_maps_to_429(self, http):
        client, service = http
        assert client.request("POST", "/kernels", dict(BODY))[0] == 201
        assert client.request(
            "POST", "/kernels", dict(BODY, seed=8))[0] == 201
        status, body, _ = client.request("POST", "/kernels",
                                         dict(BODY, seed=9))
        assert status == 429
        payload = json.loads(body)
        assert payload["limit"] == 2
        assert payload["outstanding"] == 2
        assert payload["tenant"] == "default"

    def test_jobs_listing_filters_by_tenant(self, http):
        client, service = http
        client.request("POST", "/kernels", dict(BODY, tenant="a"))
        client.request("POST", "/kernels",
                       dict(BODY, seed=8, tenant="b"))
        status, body, _ = client.request("GET", "/jobs?tenant=a")
        jobs = json.loads(body)["jobs"]
        assert len(jobs) == 1
        assert jobs[0]["tenant"] == "a"
        assert len(json.loads(
            client.request("GET", "/jobs")[1])["jobs"]) == 2

    def test_healthz(self, http):
        client, service = http
        status, body, _ = client.request("GET", "/healthz")
        assert status == 200
        assert json.loads(body)["workers"] == 0

    def test_oversized_body_is_413(self, http):
        client, service = http
        try:
            status, _, _ = client.request(
                "POST", "/kernels",
                {"app": "2mm", "ptx": "x" * (5 << 20)})
        except urllib.error.URLError:
            # the server refused to read the oversized upload and
            # closed the connection mid-send — the rejection we want
            return
        assert status == 413

    def test_http_resubmission_served_from_store(self, http):
        client, service = http
        first = json.loads(client.request("POST", "/kernels",
                                          dict(BODY))[1])
        service.drain()
        status, body, _ = client.request("POST", "/kernels", dict(BODY))
        assert status == 201
        again = json.loads(body)
        assert again["status"] == STATUS_DONE
        assert again["result_cache"] == "hit"
        assert again["id"] != first["id"]


class TestWorkerPool:
    def test_background_pool_processes_jobs(self, tmp_path):
        service = AnalysisService(tmp_path / "svc", workers=2)
        service.start()
        try:
            record = service.submit(dict(BODY))
            import time

            deadline = time.time() + 60
            while time.time() < deadline:
                current = service.queue.get(record.id)
                if current.status in (STATUS_DONE, STATUS_FAILED):
                    break
                time.sleep(0.05)
            assert current.status == STATUS_DONE
        finally:
            service.stop()
        assert not service.pool.running
