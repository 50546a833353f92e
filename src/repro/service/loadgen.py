"""Load generator for the analysis service (the service benchmark).

Replays a deterministic mixed workload — the Table I applications
cycled through varied analysis stages and simulator knobs — against a
running service at a configurable client concurrency, then audits the
run for correctness and summarizes latency:

* **lost** jobs: submitted and acknowledged but absent from the
  server's job listing afterwards;
* **duplicated** jobs: one acknowledged submission appearing under
  more than one job id (distinct submissions *sharing* a result via
  the content-addressed store are expected, and counted as
  ``result_cache_hits`` instead);
* **latency**: per-job submit→done wall time, reported as
  p50/p95/p99/mean/max milliseconds plus whole-run ``jobs_per_sec``.

The report dict nests like every ``BENCH_*.json`` in this repo, so the
CI perf gate diffs it with ``repro sweep compare`` tolerance rules
(``latency_ms.p95=3.0:up``, ``totals.jobs_per_sec=0.75:down``,
exact-zero ``totals.lost``/``totals.duplicated``).
"""

from __future__ import annotations

import json
import math
import threading
import time
import urllib.error
import urllib.request
from typing import Dict, List, Optional

#: default mixed-workload applications (the paper's Table I suite);
#: resolved lazily so the loadgen can aim at a remote server without
#: importing the pipeline.
DEFAULT_APPS: Optional[List[str]] = None

#: stage variations cycled across the mix: plain classify+simulate,
#: then with races, then emulate-only, then with the advisor.
_STAGES = (
    {},
    {"races": "interval"},
    {"simulate": False},
    {"advise": True},
)


def default_mix(jobs, apps=None, scale=0.1, seed=7):
    """The deterministic job-body list a loadgen run replays.

    Cycles the application list against :data:`_STAGES` variations, so
    consecutive jobs differ in both app and analysis depth — a mixed
    queue, not thirty copies of one request.  Repeats beyond one full
    cycle are *intentionally identical* requests: they exercise the
    content-addressed result path under concurrency.
    """
    if apps is None:
        from ..workloads import workload_names

        apps = list(workload_names())
    bodies = []
    for index in range(jobs):
        app = apps[index % len(apps)]
        stage = _STAGES[(index // len(apps)) % len(_STAGES)]
        body = {"app": app, "scale": scale, "seed": seed}
        body.update(stage)
        bodies.append(body)
    return bodies


class ServiceClient:
    """Minimal stdlib HTTP client for the service API."""

    def __init__(self, base_url, timeout=60.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def _request(self, method, path, body=None):
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        req = urllib.request.Request(self.base_url + path, data=data,
                                     headers=headers, method=method)
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return resp.status, json.loads(resp.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            payload = exc.read().decode("utf-8", "replace")
            try:
                return exc.code, json.loads(payload)
            except json.JSONDecodeError:
                return exc.code, {"error": payload}

    def submit(self, body):
        return self._request("POST", "/kernels", body)

    def job(self, job_id, include_result=False):
        suffix = "" if include_result else "?result=0"
        return self._request("GET", "/jobs/%s%s" % (job_id, suffix))

    def jobs(self):
        return self._request("GET", "/jobs")

    def wait(self, job_id, timeout=120.0, poll=0.05):
        """Poll until the job leaves the outstanding states."""
        deadline = time.monotonic() + timeout
        while True:
            status, body = self.job(job_id)
            if status == 200 and body["status"] in ("done", "failed"):
                return body
            if time.monotonic() > deadline:
                raise TimeoutError("job %s still %s after %.0fs"
                                   % (job_id, body.get("status"), timeout))
            time.sleep(poll)


def _percentile(sorted_values, fraction):
    """Nearest-rank percentile: the ``ceil(fraction * n)``-th smallest
    value (deterministic, no interpolation)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(fraction * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def run_loadgen(base_url, jobs=30, clients=8, scale=0.1, apps=None,
                timeout=120.0, poll=0.05, log=None):
    """Drive a running service; returns the benchmark report dict."""
    bodies = default_mix(jobs, apps=apps, scale=scale)
    client = ServiceClient(base_url, timeout=timeout)
    lock = threading.Lock()
    cursor = {"next": 0}
    outcomes: List[Dict[str, object]] = []
    errors: List[str] = []

    def _client_loop():
        while True:
            with lock:
                index = cursor["next"]
                if index >= len(bodies):
                    return
                cursor["next"] = index + 1
            body = bodies[index]
            t0 = time.perf_counter()
            try:
                status, ack = client.submit(body)
                if status != 201:
                    raise RuntimeError("submit -> %d: %s"
                                       % (status, ack.get("error")))
                final = client.wait(ack["id"], timeout=timeout, poll=poll)
                latency = time.perf_counter() - t0
                with lock:
                    outcomes.append({
                        "index": index, "app": body["app"],
                        "id": ack["id"], "status": final["status"],
                        "result_cache": final.get("result_cache"),
                        "latency_s": latency,
                    })
            except Exception as exc:  # noqa: BLE001 — audit, don't crash
                with lock:
                    errors.append("job %d (%s): %s: %s"
                                  % (index, body.get("app"),
                                     type(exc).__name__, exc))

    started = time.perf_counter()
    threads = [threading.Thread(target=_client_loop,
                                name="loadgen-%d" % i, daemon=True)
               for i in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started

    # -- audit: every acknowledged job exists exactly once server-side
    _, listing = client.jobs()
    server_ids = [j["id"] for j in listing.get("jobs", [])]
    acked_ids = [o["id"] for o in outcomes]
    lost = sorted(set(acked_ids) - set(server_ids))
    duplicated = sorted(
        {i for i in acked_ids if acked_ids.count(i) > 1}
        | {i for i in server_ids if server_ids.count(i) > 1})
    failed = [o for o in outcomes if o["status"] != "done"]
    hits = sum(1 for o in outcomes if o.get("result_cache") == "hit")

    latencies = sorted(o["latency_s"] for o in outcomes)
    latency_ms = {
        "p50": 1000 * _percentile(latencies, 0.50),
        "p95": 1000 * _percentile(latencies, 0.95),
        "p99": 1000 * _percentile(latencies, 0.99),
        "mean": (1000 * sum(latencies) / len(latencies)
                 if latencies else 0.0),
        "max": 1000 * latencies[-1] if latencies else 0.0,
    }
    report = {
        "config": {
            "jobs": jobs, "clients": clients, "scale": scale,
            "apps": sorted({b["app"] for b in bodies}),
        },
        "totals": {
            "jobs": len(outcomes),
            "submit_errors": len(errors),
            "lost": len(lost),
            "duplicated": len(duplicated),
            "failed": len(failed),
            "result_cache_hits": hits,
            "wall_seconds": round(wall, 4),
            "jobs_per_sec": (round(len(outcomes) / wall, 3)
                             if wall > 0 else 0.0),
        },
        "latency_ms": {k: round(v, 2) for k, v in latency_ms.items()},
    }
    if errors:
        report["errors"] = errors[:20]
    if log is not None:
        log("loadgen: %d jobs, %d clients: p50 %.0fms p95 %.0fms "
            "p99 %.0fms, %.2f jobs/s, lost=%d dup=%d failed=%d"
            % (len(outcomes), clients, latency_ms["p50"],
               latency_ms["p95"], latency_ms["p99"],
               report["totals"]["jobs_per_sec"], len(lost),
               len(duplicated), len(failed)))
    return report


__all__ = ["ServiceClient", "default_mix", "run_loadgen"]
