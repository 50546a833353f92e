"""The benchmark's workloads and the in-process jobs they run.

A *job* is one application on one input seed through
``ExperimentRunner.result`` (or, for ``service-mix``, one HTTP request;
see :mod:`service_mix`).  A *pass* runs every job of a workload once.

The inputs are fixed: a workload reads the same input seeds whatever
``--seed`` is, so every job always has the same work and the same
expected output.  ``--seed`` only shuffles the order of the jobs
within each pass.  Run-to-run spread then measures the host, not a
change of input size.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: the default ``--seed``.
DEFAULT_SEED = 7


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                  # "sim" | "emulate" | "service"
    apps: Tuple[str, ...]
    smoke_apps: Tuple[str, ...]
    scale: float
    #: workload seeds of the inputs; a pass runs every app on each
    input_seeds: Tuple[int, ...]
    #: passes of an untraced run
    passes: int


_ALL_APPS = ("2mm", "gaus", "grm", "lu", "spmv", "htw", "mriq", "dwt",
             "bpr", "srad", "bfs", "sssp", "ccl", "mst", "mis")

# Every app finishes and verifies on input seeds 1, 2 and 3 (the
# service's warm-up seed) at every scale used here.  Not every seed
# qualifies: mst's pointer jumping never converges on some R-MAT inputs
# (e.g. seed 2009 at scale 0.25).
WORKLOADS = {w.name: w for w in (
    # graph inputs are at their size floor at 0.1 (0.05 gives the same
    # cycles); simulation is almost all of each job and most SM cycles
    # do no work
    Workload("sim-irregular", "sim", ("bfs", "sssp", "ccl", "mst", "mis"),
             ("bfs", "mis"), 0.1, (1,), 5),
    # coalesced D loads and busy SMs: the same layer used differently
    Workload("sim-regular", "sim",
             ("2mm", "lu", "htw", "mriq", "bpr", "srad", "dwt"),
             ("mriq", "dwt"), 0.5, (1,), 5),
    # the producer half: parse, classify, setup, emulate, verify and
    # trace-cache writes, with no simulation at all
    Workload("emulate-cold", "emulate", _ALL_APPS, ("gaus", "spmv"), 0.25,
             (1,), 5),
    # the only workload through queue, store, HTTP, races and advise;
    # every pass boots a fresh server.  htw, sssp, ccl and mst are left
    # out: at scale 0.05 they alone took 85% of a pass, and simulating
    # them is what the sim-* workloads measure
    Workload("service-mix", "service",
             ("2mm", "gaus", "grm", "lu", "spmv", "mriq", "dwt", "bpr",
              "srad", "bfs", "mis"), ("spmv", "bfs"), 0.05, (1, 2), 4),
)}


def job_order(items, seed, pass_index):
    """``items`` in the order pass ``pass_index`` runs them."""
    return random.Random(seed * 1000 + pass_index).sample(items, len(items))


def digest(payload):
    """SHA-256 of a JSON value in canonical form."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class Job:
    """One finished (or failed) job."""

    key: str
    #: latency at reference host speed (see :mod:`host`)
    ms: float
    #: latency in wall time
    wall_ms: float = 0.0
    digest: Optional[str] = None
    error: Optional[str] = None
    #: deterministic counts the job produced (modelled counters for a
    #: simulation, emulated warp instructions for an emulation).
    counts: Dict[str, int] = field(default_factory=dict)
    #: service jobs: times taken from the job record, in ms.
    record: Dict[str, object] = field(default_factory=dict)


@dataclass
class Pass:
    wall_s: float
    jobs: List[Job]
    traced: bool = False
    #: traced passes: per-layer metric values and the counts behind them
    layers: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)


class Checker:
    """Checks each job's digest against ``expected`` (key -> digest);
    with no ``expected``, against the first job with the same key."""

    def __init__(self, expected=None):
        self.expected = expected
        self.seen: Dict[str, str] = {}

    def check(self, job):
        if job.error is not None:
            return
        want = (self.expected.get(job.key) if self.expected is not None
                else self.seen.setdefault(job.key, job.digest))
        if job.digest != want:
            job.error = "digest %s, expected %s" % (job.digest, want)


# -- simulation and emulation jobs ----------------------------------------

def _model_counts(stats):
    classes = stats.classes.values()
    return {
        "cycles": stats.cycles,
        "warp_insts": stats.issued_warp_insts,
        "l1_accesses": sum(c.l1_accesses() for c in classes),
        "l1_misses": sum(c.l1_miss for c in classes),
        "l2_accesses": sum(c.l2_hit + c.l2_miss for c in classes),
        "l2_misses": sum(c.l2_miss for c in classes),
        "l1_cycles": sum(stats.l1_cycles.values()),
        "l1_fail_cycles": sum(n for o, n in stats.l1_cycles.items()
                              if o.is_fail),
        "issue_stall_cycles": sum(stats.issue_stall.values()),
        "dram_reads": stats.dram_reads,
    }


def _sim_digest(app, result):
    from repro.service.pipeline import render_simulation

    run, stats = result.run, result.stats
    if stats.issued_warp_insts != run.trace.total_warp_instructions():
        raise AssertionError("simulated %d warp instructions of %d traced"
                             % (stats.issued_warp_insts,
                                run.trace.total_warp_instructions()))
    return digest({
        "report": render_simulation(app, stats, result.config,
                                    run.classifications),
        "cycles": stats.cycles,
        "dn_split": list(run.dynamic_class_split()),
    })


def _emulate_digest(result):
    from repro.core import format_kernel_report

    run = result.run
    return digest({
        "warp_insts": run.trace.total_warp_instructions(),
        "dn_split": list(run.dynamic_class_split()),
        "reports": [format_kernel_report(run.classifications[k.name])
                    for k in run.module],
    })


def run_local_job(workload, app, seed, clock):
    """One ``ExperimentRunner`` job, timed by ``clock``; never raises."""
    from repro.experiments.runner import BENCH_CONFIG, ExperimentRunner

    if workload.kind == "sim":
        runner = ExperimentRunner(scale=workload.scale, config=BENCH_CONFIG,
                                  seed=seed, use_trace_cache=True)
    else:
        runner = ExperimentRunner(scale=workload.scale, seed=seed,
                                  simulate=False, use_trace_cache=True)
    job = Job(key="%s@%d" % (app, seed), ms=0.0)
    try:
        result, wall_s, reference_s = clock.time(runner.result, app)
        job.wall_ms, job.ms = wall_s * 1000, reference_s * 1000
        if workload.kind == "sim":
            job.digest = _sim_digest(app, result)
            job.counts = _model_counts(result.stats)
        else:
            job.digest = _emulate_digest(result)
        if result.meta.get("trace_cache") != "hit":
            job.counts["emulated_warp_insts"] = \
                result.run.trace.total_warp_instructions()
        job.counts["fallbacks"] = len(result.run.fallbacks)
    except Exception as exc:  # noqa: BLE001 — a failed job is a result
        job.error = "%s: %s" % (type(exc).__name__, exc)
    return job


def run_local_pass(workload, apps, seed, pass_index, cache_root, clock):
    """Run every job once, in the order ``seed`` gives pass
    ``pass_index``, each from a collected heap.  ``emulate`` passes
    start from an empty trace-cache directory."""
    cold = os.path.join(cache_root, "cold")
    if workload.kind == "emulate":
        os.environ["REPRO_TRACE_CACHE_DIR"] = cold
    jobs = []
    for app, input_seed in job_order(
            [(app, s) for s in workload.input_seeds for app in apps],
            seed, pass_index):
        gc.collect()
        jobs.append(run_local_job(workload, app, input_seed, clock))
    shutil.rmtree(cold, ignore_errors=True)
    return Pass(jobs=jobs, wall_s=sum(job.wall_ms for job in jobs) / 1000)


# -- set-up ---------------------------------------------------------------

def _fill(workload, apps):
    from repro.experiments.runner import ExperimentRunner

    for input_seed in workload.input_seeds:
        for app in apps:
            ExperimentRunner(scale=workload.scale, seed=input_seed,
                             use_trace_cache=True).workload_run(app)


def fill_trace_cache(workload, apps, cache_dir, clock):
    """Emulate (and verify) every app into an empty trace cache at
    ``cache_dir``; returns the seconds taken at reference speed."""
    shutil.rmtree(cache_dir, ignore_errors=True)
    gc.collect()
    return clock.time(_fill, workload, apps)[2]


_IMPORT_PROBE = """\
import sys
sys.path.insert(0, %r)
from host import HostClock

def load():
    from repro.experiments.runner import ExperimentRunner
    from repro.workloads import get_workload, workload_names
    for name in workload_names():
        get_workload(name, scale=%r, seed=%d)

with HostClock() as clock:
    print(clock.time(load)[2])
"""


def time_import(workload, env):
    """Seconds at reference speed a fresh interpreter takes to import
    the pipeline and load the workload registry."""
    here = os.path.dirname(os.path.abspath(__file__))
    out = subprocess.run(
        [sys.executable, "-c",
         _IMPORT_PROBE % (here, workload.scale, workload.input_seeds[0])],
        env=env, check=True, capture_output=True, text=True, timeout=60)
    return float(out.stdout.strip().splitlines()[-1])
