"""The ``service-mix`` workload: ``repro serve --workers 1`` in a
subprocess, driven over HTTP by one closed-loop client.

A pass is a fresh server (empty store, empty trace cache) that first
gets one unmeasured warm-up request per variant and then one request
per app and input seed, in an order ``--seed`` picks.  The variant
rotates over the apps (app ``i`` on input ``k`` gets
``VARIANTS[(i + 2k) % 4]``), so a pass mixes all four analysis depths
and no two requests share a trace.  Every pass sends the same requests
to a server in the same state, so a request's latency is the median
over passes, as for the in-process workloads.  Job times come from
the server's job record (``finished_at - submitted_at``), so the
client's 20 ms poll does not quantize them.  The server runs under
:mod:`serve`, which samples the host's speed, so that job and boot
times can be given at reference speed (see :mod:`host`), like those of
the in-process workloads.

This measures one request at a time through HTTP, queue, store, worker
and pipeline, not concurrent traffic.  The server's workers are
threads under one interpreter lock, so a second client and worker only
interleave two jobs, and each job's latency then depends on what it
overlapped with (measured on a 2-core host: no more throughput, 2-3x
the run-to-run spread).
"""

from __future__ import annotations

import json
import os
import re
import select
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

from host import at_reference, window
from jobs import Job, Pass, digest, job_order

SERVE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "serve.py")

VARIANTS = (
    ("plain", {}),
    ("races", {"races": "interval"}),
    ("emulate_only", {"simulate": False}),
    ("advise", {"advise": True}),
)

WORKERS = 1
#: warm-up requests: a small app on a seed the measured inputs never use
WARM_UP_APP = "gaus"
WARM_UP_SEED = 3
POLL_S = 0.02
BOOT_TIMEOUT_S = 60
JOB_TIMEOUT_S = 120


class Server:
    """One ``repro serve`` subprocess over a fresh store, on ``cpu``."""

    def __init__(self, root, env, log, cpu):
        os.makedirs(root, exist_ok=True)
        env = dict(env, REPRO_TRACE_CACHE_DIR=os.path.join(root, "traces"))
        self.samples_path = os.path.join(root, "host_samples.json")
        self.started = time.time()
        self.proc = subprocess.Popen(
            [sys.executable, SERVE, self.samples_path, "serve",
             "--port", "0", "--workers", str(WORKERS), "--quiet",
             "--store", os.path.join(root, "store")],
            stdout=subprocess.PIPE, stderr=log, env=env, text=True)
        os.sched_setaffinity(self.proc.pid, {cpu})
        self.url = None
        self.ready = None

    def wait_ready(self):
        """Block until ``/healthz`` answers 200; returns the URL."""
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    BOOT_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        match = re.search(r"serving on (http://\S+)", line)
        if match is None:
            raise RuntimeError("server did not start: %r" % line)
        self.url = match.group(1)
        while True:
            try:
                with urllib.request.urlopen(self.url + "/healthz",
                                            timeout=5) as resp:
                    if resp.status == 200:
                        self.ready = time.time()
                        return self.url
            except (urllib.error.URLError, ConnectionError):
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("server at %s never became healthy"
                                   % self.url)
            time.sleep(0.01)

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM for the server process")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()

    def samples(self):
        """The host-speed samples of a stopped server."""
        with open(self.samples_path) as fh:
            return json.load(fh)


def boot(root, env, log, cpu):
    """Start a server and wait until it is healthy."""
    server = Server(root, env, log, cpu)
    try:
        server.wait_ready()
    except BaseException:
        server.stop()
        raise
    return server


def boot_seconds(server, samples):
    """Seconds at reference speed from start to healthy."""
    probes, probed = window(samples, server.started, server.ready)
    return at_reference((server.ready - server.started) * 1e9 - probed,
                        probes)


def at_reference_speed(passes, samples):
    """Give the latency of every finished job of ``passes`` at reference
    speed, from the samples of the server that ran them."""
    for p in passes:
        for job in p.jobs:
            if job.error is None:
                start, end = job.record["submitted_at"], \
                    job.record["finished_at"]
                probes, probed = window(samples, start, end)
                job.ms = at_reference((end - start) * 1e9 - probed,
                                      probes) * 1000


def pass_requests(workload, apps, seed, pass_index):
    """``(key, variant, body)`` for each request of one pass."""
    requests = []
    for k, input_seed in enumerate(workload.input_seeds):
        for app in apps:
            # rotate by the app's place in the full list, so a --smoke
            # run's requests are a subset of a full run's
            i = workload.apps.index(app)
            variant, extra = VARIANTS[(i + 2 * k) % len(VARIANTS)]
            body = dict({"app": app, "scale": workload.scale,
                         "seed": input_seed}, **extra)
            requests.append(("%s@%d/%s" % (app, input_seed, variant),
                             variant, body))
    return job_order(requests, seed, pass_index)


def _run_request(client, key, variant, body):
    job = Job(key=key, ms=0.0)
    start = time.perf_counter()
    try:
        status, ack = client.submit(body)
        if status != 201:
            raise RuntimeError("submit -> %d: %s" % (status, ack))
        client.wait(ack["id"], timeout=JOB_TIMEOUT_S, poll=POLL_S)
        client_ms = (time.perf_counter() - start) * 1000
        status, record = client.job(ack["id"], include_result=True)
        if status != 200 or record["status"] != "done":
            raise RuntimeError("job %s ended %s: %s" % (
                ack["id"], record.get("status"), record.get("error")))
        result = record["result"]
        if result["app"] != body["app"] or \
                result["request"]["seed"] != body["seed"]:
            raise RuntimeError("result answers another request")
        submitted = record["submitted_at"]
        started = record.get("started_at", submitted)
        job.ms = job.wall_ms = (record["finished_at"] - submitted) * 1000
        job.digest = digest(result)
        job.record = {
            "variant": variant,
            "submitted_at": submitted,
            "finished_at": record["finished_at"],
            "exec_ms": (record["finished_at"] - started) * 1000,
            "client_overhead_ms": client_ms - job.wall_ms,
            "result_cache_hit": record.get("result_cache") == "hit",
        }
    except Exception as exc:  # noqa: BLE001 — a failed job is a result
        job.error = "%s: %s" % (type(exc).__name__, exc)
    return job


def warm_up(client, workload):
    """One unmeasured request per variant, on an input no measured
    request reads, so that no measured request pays for the server's
    first use of a code path (lazy imports, first allocations)."""
    for variant, extra in VARIANTS:
        body = dict({"app": WARM_UP_APP, "scale": workload.scale,
                     "seed": WARM_UP_SEED}, **extra)
        job = _run_request(client, "warm-up/" + variant, variant, body)
        if job.error is not None:
            raise RuntimeError("warm-up request failed: %s" % job.error)


def run_pass(url, workload, apps, seed, pass_index):
    """One pass against a fresh server, one request at a time."""
    from repro.service.loadgen import ServiceClient

    client = ServiceClient(url, timeout=JOB_TIMEOUT_S)
    warm_up(client, workload)
    start = time.perf_counter()
    jobs = [_run_request(client, *request) for request in
            pass_requests(workload, apps, seed, pass_index)]
    return Pass(wall_s=time.perf_counter() - start, jobs=jobs)
