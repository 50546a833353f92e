"""Pipeline benchmark: whole-job metrics and a per-layer split of
PTX -> classify -> emulate -> simulate -> profile, down to simulator
components.

One workload, as a benchmark harness runs it::

    python3 bench_pipeline/run.py --workload sim-irregular --seed 7 \\
        --seconds 30 --trace 0

prints one JSON object as its last line: ``correct``, ``attempted``,
``failed`` and the ``end_to_end`` metrics (``--trace 0``) or the
``per_layer`` metrics (``--trace 1``) of ``BENCHMARK.json``.  Without
``--workload`` it runs every workload, each in a fresh child process,
untraced and then traced, prints every metric with its unit and writes
``report.json`` into ``--out``.  See ``bench_pipeline/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: working files and the default report directory, inside the checkout.
WORK_ROOT = os.path.join(ROOT, ".bench_pipeline")
EXPECTED = os.path.join(HERE, "pipeline_expected.json")

sys.path.insert(0, SRC)

from jobs import (  # noqa: E402
    DEFAULT_SEED, WORKLOADS, Checker, fill_trace_cache, run_local_pass,
    time_import)
from metrics import (  # noqa: E402
    END_TO_END, PER_LAYER, end_to_end, pass_layers, per_layer)

#: set-ups an untraced run times; their median is ``setup_s``.
SETUPS = 3
#: passes an untraced run makes even when ``--seconds`` has run out.
MIN_PASSES = 2
#: untraced reference passes and traced passes of a traced run.
REFERENCE_PASSES = 2
TRACED_PASSES = 2


def run_shape(args, workload):
    """``(set-ups, passes)`` of a run.  Pass counts are fixed;
    ``--seconds`` only caps them on a slow host."""
    service = workload.kind == "service"
    if args.smoke:
        return 1, TRACED_PASSES if args.trace and not service else 1
    if args.trace:
        return 1, 1 if service else TRACED_PASSES
    return SETUPS, workload.passes


def child_env(work):
    """Environment for the pipeline's child processes: the checkout's
    sources, and caches and temporary files inside ``work``."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    env["TMPDIR"] = work
    return env


def _may_start(index, deadline):
    return index < MIN_PASSES or time.perf_counter() < deadline


# -- one workload ---------------------------------------------------------

def measure_local(workload, apps, args, work):
    """Set up, then run in-process passes; returns
    ``(passes, setup_s, reference_passes, extras)``."""
    from host import HostClock, WallClock

    setups, count = run_shape(args, workload)
    # an untraced run gives times at reference host speed; a traced run
    # takes wall time, so that no probe lands inside a timed wrapper
    clock = WallClock() if args.trace else HostClock()
    if workload.kind == "emulate":
        # a fresh interpreter each, which runs its own host clock
        env = child_env(work)
        setup = [time_import(workload, env) for _ in range(setups)]
    with clock:
        if workload.kind == "sim":
            # the trace-cache fill: every job emulated and verified once
            traces = os.environ["REPRO_TRACE_CACHE_DIR"]
            setup = [fill_trace_cache(workload, apps, traces, clock)
                     for _ in range(setups)]
        if args.trace:
            passes, references, extras = traced_passes(
                workload, apps, args, work, count, clock)
            return passes, setup, references, extras
        passes = []
        deadline = time.perf_counter() + args.seconds
        for index in range(count):
            if not _may_start(index, deadline):
                break
            passes.append(run_local_pass(workload, apps, args.seed, index,
                                         work, clock))
    probes = [ns for _t, ns in clock.samples]
    return passes, setup, [], {"host_probes_ns": _quartiles(probes)}


def traced_passes(workload, apps, args, work, count, clock):
    """Untraced reference passes, then ``count`` traced passes; returns
    ``(traced passes, reference passes, extras)``."""
    from layers import Instruments, stage_times, wrapper_cost
    from repro.obs import tracing

    # reference passes, spans only: the first also warms the process
    # up, the faster one is the reference
    references = []
    for index in range(REFERENCE_PASSES):
        tracer = tracing.Tracer()
        with tracing.use_tracer(tracer):
            p = run_local_pass(workload, apps, args.seed, index, work,
                               clock)
        references.append((stage_times(tracer), p))
    reference = min(references, key=lambda r: r[1].wall_s)
    instruments = Instruments().install()
    passes, traced, extras = [], [], {}
    try:
        for index in range(count):
            instruments.reset()
            tracer = tracing.Tracer()
            with tracing.use_tracer(tracer):
                p = run_local_pass(workload, apps, args.seed,
                                   REFERENCE_PASSES + index, work, clock)
            p.traced = True
            passes.append(p)
            traced.append((stage_times(tracer)[0]["simulate"],
                           instruments.snapshot()))
            if index == 0:
                os.makedirs(args.out, exist_ok=True)
                extras["chrome_trace"] = tracer.write_chrome_trace(
                    os.path.join(args.out, "%s.chrome_trace.json"
                                 % workload.name),
                    process_name="bench_pipeline %s" % workload.name)
    finally:
        instruments.uninstall()
    # the fastest traced pass against the fastest reference: what the
    # wrappers cost, with the least host noise in it (every traced pass
    # makes the same calls)
    (stages, _app_ms, _self_ms), _p = reference
    cost = wrapper_cost(min(simulate for simulate, _timers in traced),
                        stages["simulate"], traced[0][1],
                        instruments.inside_share)
    extras["wrapper_cost_ns"] = {"inside": cost[0], "outside": cost[1]}
    for p, (_simulate, timers) in zip(passes, traced):
        p.layers, p.counts, coverage = pass_layers(timers, reference, cost,
                                                   p.jobs)
        extras.setdefault("coverage", []).append(coverage)
    return passes, [p for _stages, p in references], extras


def measure_service(workload, apps, args, work):
    """Boot servers and run one pass against each of the last ones;
    returns ``(passes, setup_s, peak_rss_mb, extras)``."""
    from service_mix import at_reference_speed, boot, boot_seconds, run_pass

    setups, count = run_shape(args, workload)
    env = child_env(work)
    # the server gets the measuring CPU, the client the other one
    os.sched_setaffinity(0, {args.cpus[0]})
    # every boot is timed; the passes run on the last ``count`` of them
    boots = max(setups, count)
    setup, passes, rss, probes = [], [], 0.0, []
    with open(os.path.join(work, "server.log"), "w") as log:
        for i in range(boots):
            server = boot(os.path.join(work, "server-%d" % i), env, log,
                          args.cpus[-1])
            ran = []
            try:
                index = i - (boots - count)
                if index == 0:
                    deadline = time.perf_counter() + args.seconds
                if index >= 0 and _may_start(index, deadline):
                    ran.append(run_pass(server.url, workload, apps,
                                        args.seed, index))
                    rss = max(rss, server.peak_rss_mb())
            finally:
                server.stop()
            samples = server.samples()
            setup.append(boot_seconds(server, samples))
            at_reference_speed(ran, samples)
            passes += ran
            probes += [ns for _t, ns in samples]
    return passes, setup, rss, {"host_probes_ns": _quartiles(probes)}


def _quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else values


def measure(args, expected):
    """Run one workload; returns the result dict (last output line) and
    the detailed report.  ``expected`` maps job keys to digests; with
    ``None``, repeats of a job must agree with each other."""
    workload = WORKLOADS[args.workload]
    apps = workload.smoke_apps if args.smoke else workload.apps
    work = os.path.join(WORK_ROOT, "work", str(os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.environ["REPRO_TRACE_CACHE_DIR"] = os.path.join(work, "traces")
    tempfile.tempdir = work
    # one CPU runs every timed job, so that the host clock's probes time
    # the CPU the jobs run on (the vCPUs of a shared host drift apart)
    os.sched_setaffinity(0, {args.cpus[-1]})
    references = []
    try:
        if workload.kind == "service":
            passes, setup, rss, extras = measure_service(workload, apps,
                                                         args, work)
        else:
            passes, setup, references, extras = measure_local(
                workload, apps, args, work)
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checker = Checker(expected)
    jobs = [job for p in references + passes for job in p.jobs]
    for job in jobs:
        checker.check(job)
    errors = ["%s: %s" % (job.key, job.error) for job in jobs
              if job.error is not None]
    traced = [p for p in passes if p.traced]
    for p in traced[1:]:
        if p.counts != traced[0].counts:
            errors.append("traced passes disagree on deterministic counts")
            break

    failed = sum(job.error is not None for job in jobs)
    if args.trace:
        values = per_layer(passes, references)
        units = PER_LAYER
    else:
        values = end_to_end(passes, setup, rss)
        units = END_TO_END
    result = {
        "correct": not errors,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "apps": list(apps),
        "input_seeds": list(workload.input_seeds),
        "scale": workload.scale,
        "error_rate": failed / len(jobs),
        "errors": errors,
        "setup_s": setup,
        "reference_passes": [asdict(p) for p in references],
        "passes": [asdict(p) for p in passes],
        **extras,
    }
    return result, report


def print_metrics(workload, result):
    for name, metric in result["metrics"].items():
        print("%-14s %-34s %14.6g %s" % (workload, name, metric["value"],
                                         metric["unit"]))


def run_one(args):
    with open(args.expected) as fh:
        expected = json.load(fh)["digests"][args.workload]
    result, report = measure(args, expected)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "%s.trace%d.json"
                        % (args.workload, args.trace))
    with open(path, "w") as fh:
        json.dump(dict(report, result=result), fh, indent=1)
    for error in report["errors"][:20]:
        sys.stderr.write("error: %s\n" % error)
    print_metrics(args.workload, result)
    print(json.dumps(result))
    return 0


# -- every workload -------------------------------------------------------

def run_all(args):
    """Each workload in a fresh child process, untraced then traced."""
    report = {}
    ok = True
    for name in WORKLOADS:
        report[name] = {}
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--trace", str(trace),
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--out", args.out, "--expected", args.expected]
            if args.smoke:
                cmd.append("--smoke")
            proc = subprocess.run(cmd, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write("%s --trace %d exited %d\n"
                                 % (name, trace, proc.returncode))
                ok = False
                continue
            result = json.loads(lines[-1])
            report[name]["traced" if trace else "untraced"] = result
            print_metrics(name, result)
            ok = ok and result["correct"]
    path = os.path.join(args.out, "report.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print("wrote %s" % path)
    return 0 if ok else 1


def update_expected(args):
    """Recompute every job digest; the repeats within each workload's
    run must agree."""
    digests = {}
    for name in WORKLOADS:
        args.workload, args.trace = name, 0
        _result, report = measure(args, None)
        if report["errors"]:
            raise SystemExit("%s failed: %s" % (name, report["errors"][:5]))
        digests[name] = {job["key"]: job["digest"]
                         for p in report["passes"] for job in p["jobs"]}
        print("%s: %d digests" % (name, len(digests[name])))
    with open(args.expected, "w") as fh:
        json.dump({"digests": digests}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %s" % args.expected)
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload in this process (default: "
                             "every workload, each in a child process)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="shuffles the job order of each pass; the "
                             "inputs are fixed (default %d)" % DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="cap on the measuring time: once it has run "
                             "out, no pass past the second starts")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--out", default=os.path.join(WORK_ROOT, "out"),
                        help="directory for the JSON reports and traces")
    parser.add_argument("--smoke", action="store_true",
                        help="2 apps per workload, one set-up, one pass "
                             "(two when traced)")
    parser.add_argument("--expected", default=EXPECTED,
                        help="digest file every job is checked against")
    parser.add_argument("--update-expected", action="store_true",
                        help="recompute the digest file and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.stderr.write("no pipeline sources at %s\n" % SRC)
        return 2
    # a harness stopping us with SIGTERM still gets servers and working
    # directories cleaned up by the finally blocks
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args.cpus = sorted(os.sched_getaffinity(0))
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    if args.update_expected:
        return update_expected(args)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
