"""Census of each benchmark workload's fixed per-job work.

For one pass of every workload of ``bench_pipeline/jobs.py`` (its apps,
scale and input seeds), this counts the calls that do the work a job
needs only once per job, per kernel or per application:

* ``parse_module``: PTX parses (``Parser.parse_module``);
* ``print_module``: PTX prints;
* ``classify_kernel``: kernel classifications;
* ``cfg``: CFG constructions;
* ``run_ends``: the emulator's straight-line run tables;
* ``tables``: builds of a launch's per-instruction tables
  (``InstructionTable``; in checkouts without it, every
  ``ColumnarLaunchTrace`` built its own, so its constructor counts);
* ``profile_pass``: trace-profile passes (``TraceProfiler.fold``; in
  older checkouts also ``TraceProfiler.analyze_launch``);
* ``coalesce``: coalescing passes, the calls of
  ``repro.sim.coalescer._coalesce`` (each coalesces the launches that
  hold no coalesced table yet; older checkouts coalesced through
  ``coalesce_table`` and ``coalesce_accesses`` instead).

A call counts only when its caller is not a call of the same kind, so
a wrapper and the work it delegates to count once.

The jobs run as the benchmark runs them (the ``sim-*`` jobs simulate
on ``BENCH_CONFIG``, and each memory plan may coalesce), with one
difference that leaves these counts alone: ``service-mix`` requests go
to the service's ``execute_job`` in-process instead of over HTTP.
Those requests simulate too.  ``sim-*`` passes
start from a filled trace cache (every job a hit), the others from an
empty one (every job a miss).  No wall-clock time is taken, so two
runs give the same numbers.  Run it against any checkout by putting
that checkout's ``src`` first on the path::

    PYTHONPATH=src python3 benchmarks/fixed_work_census.py --out census.json
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.join(HERE, os.pardir, "bench_pipeline")

KINDS = ("parse_module", "print_module", "classify_kernel", "cfg",
         "run_ends", "tables", "profile_pass", "coalesce")


def _watched():
    """code object -> kind, for this checkout's functions (looked up by
    name, so older checkouts count too)."""
    from repro.core import classifier
    from repro.emulator import columnar, machine
    from repro.profiling.trace_profile import TraceProfiler
    from repro.ptx import cfg, parser, printer
    from repro.sim import coalescer

    table = getattr(columnar, "InstructionTable",
                    columnar.ColumnarLaunchTrace)
    kinds = [
        (parser.Parser.parse_module, "parse_module"),
        (printer.print_module, "print_module"),
        (classifier.classify_kernel, "classify_kernel"),
        (cfg.CFG.__init__, "cfg"),
        (machine._run_ends, "run_ends"),
        (table.__init__, "tables"),
        (getattr(TraceProfiler, "fold", None), "profile_pass"),
        (getattr(TraceProfiler, "analyze_launch", None), "profile_pass"),
        (getattr(coalescer, "_coalesce", None), "coalesce"),
        (getattr(coalescer, "coalesce_table", None), "coalesce"),
        (getattr(coalescer, "coalesce_accesses", None), "coalesce"),
    ]
    return {fn.__code__: kind for fn, kind in kinds if fn is not None}


def counted(fn, *args, **kwargs):
    """``(fn(...), Counter of outermost calls per kind)``."""
    watched = _watched()
    counts = Counter()

    def hook(frame, event, _arg):
        if event != "call":
            return
        kind = watched.get(frame.f_code)
        if kind is None:
            return
        caller = frame.f_back
        if caller is not None and watched.get(caller.f_code) == kind:
            return
        counts[kind] += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        result = fn(*args, **kwargs)
    finally:
        sys.setprofile(previous)
    return result, counts


def _local_job(workload, app, seed):
    from repro.experiments.runner import BENCH_CONFIG, ExperimentRunner

    if workload.kind == "sim":
        runner = ExperimentRunner(scale=workload.scale, config=BENCH_CONFIG,
                                  seed=seed, use_trace_cache=True)
    else:
        runner = ExperimentRunner(scale=workload.scale, seed=seed,
                                  simulate=False, use_trace_cache=True)
    return runner.result(app)


def _service_job(body):
    from repro.service.pipeline import execute_job

    return execute_job(body)


def census_workload(workload):
    """Per-job and summed counts of one pass of ``workload``."""
    import service_mix

    cache = tempfile.mkdtemp(prefix="fixed-census-")
    os.environ["REPRO_TRACE_CACHE_DIR"] = cache
    try:
        if workload.kind == "service":
            jobs = [(key, _service_job, (body,)) for key, _variant, body
                    in service_mix.pass_requests(workload, workload.apps,
                                                 seed=7, pass_index=0)]
        else:
            jobs = [("%s@%d" % (app, seed), _local_job,
                     (workload, app, seed))
                    for seed in workload.input_seeds
                    for app in workload.apps]
        if workload.kind == "sim":
            for _key, fn, args in jobs:
                fn(*args)   # fill the cache: the measured pass hits
        per_job = {}
        total = Counter()
        for key, fn, args in sorted(jobs):
            _result, counts = counted(fn, *args)
            per_job[key] = {kind: counts[kind] for kind in KINDS}
            total.update(counts)
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    return {"jobs": len(jobs),
            "total": {kind: total[kind] for kind in KINDS},
            "per_job": per_job}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=None,
                        help="comma-separated workload names (default: all)")
    parser.add_argument("--out", default=None, help="write JSON here")
    args = parser.parse_args(argv)
    sys.path.insert(0, BENCH)
    import jobs

    names = (args.workloads.split(",") if args.workloads
             else list(jobs.WORKLOADS))
    report = {name: census_workload(jobs.WORKLOADS[name]) for name in names}
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    for name, entry in report.items():
        print(name, entry["jobs"], "jobs", json.dumps(entry["total"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
