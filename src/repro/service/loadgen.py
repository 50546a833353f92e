"""Load generator for the analysis service: the concurrency audit.

Replays a deterministic mixed workload — the Table I applications
cycled through varied analysis stages and simulator knobs — against a
running service at a configurable client concurrency, then audits the
run for correctness:

* **lost** jobs: submitted and acknowledged but absent from the
  server's job listing afterwards;
* **duplicated** jobs: one acknowledged submission appearing under
  more than one job id (distinct submissions *sharing* a result via
  the content-addressed store are expected, and counted as
  ``result_cache_hits`` instead);
* **failed** jobs and **submit errors**.

``tests/service/test_loadgen.py`` requires all four to be zero.  The
service's speed is measured by the ``service-mix`` workload of
``bench_pipeline/``, not here.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from typing import Dict, List

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


def run_loadgen(base_url, jobs=30, clients=8, scale=0.1, apps=None,
                timeout=120.0, poll=0.05):
    """Drive a running service; returns the audit report dict."""
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
            try:
                status, ack = client.submit(body)
                if status != 201:
                    raise RuntimeError("submit -> %d: %s"
                                       % (status, ack.get("error")))
                final = client.wait(ack["id"], timeout=timeout, poll=poll)
                with lock:
                    outcomes.append({
                        "id": ack["id"], "status": final["status"],
                        "result_cache": final.get("result_cache"),
                    })
            except Exception as exc:  # noqa: BLE001 — audit, don't crash
                with lock:
                    errors.append("job %d (%s): %s: %s"
                                  % (index, body.get("app"),
                                     type(exc).__name__, exc))

    threads = [threading.Thread(target=_client_loop,
                                name="loadgen-%d" % i, daemon=True)
               for i in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

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

    report = {
        "totals": {
            "jobs": len(outcomes),
            "submit_errors": len(errors),
            "lost": len(lost),
            "duplicated": len(duplicated),
            "failed": len(failed),
            "result_cache_hits": hits,
        },
    }
    if errors:
        report["errors"] = errors[:20]
    return report


__all__ = ["ServiceClient", "default_mix", "run_loadgen"]
