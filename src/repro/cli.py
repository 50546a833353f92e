"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    The benchmark suite with Table I metadata.
``classify <app> | --file kernel.ptx``
    Static load classification (the paper's Section V analysis).
``verify <app> | --file kernel.ptx``
    Static PTX verification (type/def-use/CFG/barrier checks); exits 1
    when error-severity diagnostics are found.
``run <app>``
    Execute an application functionally, verify it, and print its
    Table I characteristics.
``simulate <app>``
    Run the full pipeline including the timing model and print the
    per-class statistics and the critical-load ranking.
``figures``
    Regenerate every table/figure; supports ``--jobs`` (parallel
    emulation), ``--engine`` and the on-disk trace cache.  Stamps the
    output directory with a ``manifest.json`` run manifest.
``trace <app>``
    Run the pipeline under the span tracer and print the timing tree;
    ``--trace-out`` additionally writes Chrome ``trace_event`` JSON
    (loadable in Perfetto / ``chrome://tracing``).
``metrics export``
    Run a set of applications and export the resulting metrics-registry
    snapshot as JSON or Prometheus text exposition.
``serve``
    Run the analysis service: an async HTTP job API (``POST /kernels``,
    ``GET /jobs/<id>``, ``GET /metrics``) backed by a priority queue
    with per-tenant quotas, a worker-thread pool over the
    fault-isolated experiment pipeline, and a pluggable artifact store
    holding job records and content-addressed results (DESIGN.md
    section 16).
``cache info|clear``
    Inspect or empty the content-addressed trace cache.
``races <app> | --all``
    Trace-based correctness analysis: shared-memory data races,
    inter-CTA global write conflicts, divergent/mismatched barriers and
    uninitialized shared-memory reads.  ``--mode interval`` (default)
    is the barrier-interval baseline; ``--mode predictive`` is the
    streaming happens-before detector that models atomics and fences
    as synchronization and predicts races the observed schedule
    serialized.  Exits 1 when findings are reported (``--no-fail``
    suppresses the failure exit).
``advise <app>``
    The closed-loop optimization advisor: per-line memory heat map,
    rule-based diagnosis of uncoalesced / burst-prone / cache-thrashing
    loads localized to PTX source lines, and a recommendation from the
    :mod:`repro.optim` transforms whose effect is *verified* by
    re-simulating the transformed trace (``--no-verify`` skips the
    timing runs).  ``--json``/``--heatmap-out`` export the structured
    reports; ``--out DIR`` writes both plus a ``manifest.json``.
``sweep run|status|report|compare``
    The declarative parameter-sweep engine (DESIGN.md section 11):
    ``run`` executes (a shard of) a committed spec resumably, writing
    content-addressed per-point results; ``status`` summarizes
    completion; ``report`` merges shard outputs into a
    byte-deterministic aggregate; ``compare`` diffs two metric JSON
    files with per-metric tolerances, exiting 1 on regression (the CI
    perf gate).
"""

from __future__ import annotations

import argparse
import sys

from .core import classify_kernel, format_kernel_report
from .emulator.machine import DEFAULT_ENGINE, ENGINES
from .ptx import parse_module
from .sim.config import KNOB_CHOICES, TESLA_C2050
from .sim.gpu import GPU
from .workloads import WORKLOAD_CLASSES, get_workload, workload_names


def _add_engine_flag(parser, text="warp-execution engine"):
    parser.add_argument("--engine", choices=ENGINES, default=None,
                        help="%s (default: %s)" % (text, DEFAULT_ENGINE))


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Revealing Critical Loads and Hidden "
                    "Data Locality in GPGPU Applications' (IISWC 2015)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the 15 benchmark applications")

    p_classify = sub.add_parser(
        "classify", help="classify global loads (deterministic vs "
                         "non-deterministic)")
    p_classify.add_argument("app", nargs="?",
                            help="workload name (e.g. bfs)")
    p_classify.add_argument("--file", help="classify a PTX-subset file "
                                           "instead of a workload")

    p_verify = sub.add_parser(
        "verify", help="statically verify PTX (types, def-before-use, "
                       "branch targets, barriers)")
    p_verify.add_argument("app", nargs="?",
                          help="workload name (e.g. bfs)")
    p_verify.add_argument("--file", help="verify a PTX-subset file "
                                         "instead of a workload")

    p_run = sub.add_parser("run", help="execute and verify a workload")
    p_run.add_argument("app", choices=workload_names())
    p_run.add_argument("--scale", type=float, default=0.25)
    p_run.add_argument("--seed", type=int, default=7)
    _add_engine_flag(p_run)

    p_sim = sub.add_parser("simulate",
                           help="execute, verify and time-simulate")
    p_sim.add_argument("app", choices=workload_names())
    p_sim.add_argument("--scale", type=float, default=0.25)
    p_sim.add_argument("--seed", type=int, default=7)
    p_sim.add_argument("--sms", type=int, default=4)
    p_sim.add_argument("--partitions", type=int, default=2)
    p_sim.add_argument("--l1-kb", type=int, default=2)
    p_sim.add_argument("--l2-kb", type=int, default=64)
    p_sim.add_argument("--scheduler",
                       choices=KNOB_CHOICES["warp_scheduler"],
                       default="lrr")
    p_sim.add_argument("--prefetcher", choices=KNOB_CHOICES["prefetcher"],
                       default="none")
    p_sim.add_argument("--cta-policy", choices=KNOB_CHOICES["cta_policy"],
                       default="round_robin")
    p_sim.add_argument("--top", type=int, default=8,
                       help="critical loads to list")
    _add_engine_flag(p_sim)

    p_fig = sub.add_parser(
        "figures", help="regenerate tables/figures for a set of apps and "
                        "write them (plus results.json) to a directory")
    p_fig.add_argument("--apps", default=None,
                       help="comma-separated workload names "
                            "(default: all 15)")
    p_fig.add_argument("--scale", type=float, default=0.5)
    p_fig.add_argument("--out", default="repro-results",
                       help="output directory")
    p_fig.add_argument("--jobs", type=int, default=1,
                       help="worker processes for emulation+simulation")
    _add_engine_flag(p_fig)
    p_fig.add_argument("--trace-cache", action="store_true",
                       help="reuse/populate the on-disk trace cache")
    p_fig.add_argument("--strict", action="store_true",
                       help="abort (exit nonzero) on the first failing "
                            "application instead of degrading")
    p_fig.add_argument("--timeout", type=float, default=None,
                       help="per-application timeout in seconds "
                            "(parallel runs only)")

    p_trace = sub.add_parser(
        "trace", help="run the pipeline under the span tracer and print "
                      "the timing tree")
    p_trace.add_argument("app", choices=workload_names())
    p_trace.add_argument("--scale", type=float, default=0.25)
    _add_engine_flag(p_trace)
    p_trace.add_argument("--no-simulate", action="store_true",
                         help="skip the timing simulation stage")
    p_trace.add_argument("--trace-out", default=None, metavar="PATH",
                         help="write Chrome trace_event JSON "
                              "(open in Perfetto or chrome://tracing)")

    p_metrics = sub.add_parser(
        "metrics", help="export a metrics-registry snapshot for a set of "
                        "applications")
    p_metrics.add_argument("action", choices=("export",))
    p_metrics.add_argument("--apps", default=None,
                           help="comma-separated workload names "
                                "(default: all 15)")
    p_metrics.add_argument("--scale", type=float, default=0.25)
    p_metrics.add_argument("--format", choices=("json", "prom"),
                           default="json", dest="fmt",
                           help="JSON snapshot or Prometheus text "
                                "exposition")
    p_metrics.add_argument("--no-simulate", action="store_true",
                           help="skip the timing simulation stage "
                                "(trace/locality series only)")
    p_metrics.add_argument("--out", default=None, metavar="PATH",
                           help="write to a file instead of stdout")

    p_serve = sub.add_parser(
        "serve", help="run the analysis service HTTP API "
                      "(POST /kernels, GET /jobs/<id>, GET /metrics)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8077,
                         help="TCP port (0 picks an ephemeral port)")
    p_serve.add_argument("--store", default="service-data",
                         help="artifact store location: a directory "
                              "or file:// URL (default: ./service-data)")
    p_serve.add_argument("--workers", type=int, default=2,
                         help="worker threads draining the job queue")
    p_serve.add_argument("--quota", type=int, default=None,
                         help="max outstanding jobs per tenant "
                              "(default: unlimited)")
    p_serve.add_argument("--no-trace-cache", action="store_true",
                         help="emulate every job cold instead of using "
                              "the content-addressed trace cache")
    p_serve.add_argument("--quiet", action="store_true",
                         help="suppress per-request access logging")

    p_cache = sub.add_parser(
        "cache", help="inspect or clear the on-disk trace cache")
    p_cache.add_argument("action", choices=("info", "clear"))

    p_races = sub.add_parser(
        "races", help="trace-based race/sync-bug detection "
                      "(barrier-interval happens-before); exits 1 when "
                      "findings are reported")
    p_races.add_argument("app", nargs="?",
                         choices=workload_names(include_extended=True),
                         help="workload name (or use --all)")
    p_races.add_argument("--all", action="store_true", dest="all_apps",
                         help="analyze every registered workload")
    p_races.add_argument("--scale", type=float, default=0.25)
    p_races.add_argument("--seed", type=int, default=7)
    _add_engine_flag(p_races)
    p_races.add_argument("--mode", choices=("interval", "predictive"),
                         default="interval",
                         help="detector: barrier-interval baseline or "
                              "predictive happens-before (models atomics "
                              "and fences as synchronization)")
    p_races.add_argument("--no-fail", action="store_true",
                         help="exit 0 even when findings are reported "
                              "(for exploratory runs)")
    p_races.add_argument("--json", default=None, metavar="PATH",
                         dest="json_out",
                         help="write the structured reports as JSON")

    p_adv = sub.add_parser(
        "advise", help="memory heat map + rule-based diagnosis + "
                       "simulator-verified optimization recommendation")
    p_adv.add_argument("app", choices=workload_names())
    p_adv.add_argument("--scale", type=float, default=0.25)
    _add_engine_flag(p_adv)
    p_adv.add_argument("--config", choices=("bench", "tiny", "c2050"),
                       default="bench",
                       help="GPU model for the verification runs")
    p_adv.add_argument("--trace-cache", action="store_true",
                       help="reuse/populate the on-disk trace cache")
    p_adv.add_argument("--no-verify", action="store_true",
                       help="diagnosis only: skip the baseline and "
                            "transform timing simulations")
    p_adv.add_argument("--max-requests", type=int, default=4,
                       help="sub-warp line budget for the warp_split "
                            "candidate")
    p_adv.add_argument("--cluster", type=int, default=2,
                       help="SM cluster size for the semi_global_l2 "
                            "candidate")
    p_adv.add_argument("--top", type=int, default=5,
                       help="diagnoses to print in the text report")
    p_adv.add_argument("--json", default=None, metavar="PATH",
                       dest="json_out",
                       help="write the advice report as JSON")
    p_adv.add_argument("--heatmap-out", default=None, metavar="PATH",
                       help="write the per-line heat map as JSON")
    p_adv.add_argument("--out", default=None, metavar="DIR",
                       help="write advice.json, heatmap.json and "
                            "manifest.json to a directory")

    p_sweep = sub.add_parser(
        "sweep", help="declarative parameter sweeps: sharded resumable "
                      "runs, aggregate reports, tolerance-gated compare")
    sweep_sub = p_sweep.add_subparsers(dest="sweep_command", required=True)

    ps_run = sweep_sub.add_parser(
        "run", help="execute (a shard of) a sweep spec into --out; "
                    "completed points are skipped on rerun")
    ps_run.add_argument("spec", help="sweep spec JSON file (see sweeps/)")
    ps_run.add_argument("--out", default="sweep-results",
                        help="output directory (point files land in "
                             "<out>/points)")
    ps_run.add_argument("--shard", default="1/1", metavar="K/N",
                        help="run the K-th of N deterministic shards")
    ps_run.add_argument("--jobs", type=int, default=1,
                        help="worker processes across (app, scale) groups")
    _add_engine_flag(ps_run, "warp-execution engine for cold emulations")
    ps_run.add_argument("--no-trace-cache", action="store_true",
                        help="skip the on-disk trace cache")
    ps_run.add_argument("--strict", action="store_true",
                        help="abort on the first failing point instead "
                             "of recording and continuing")

    ps_status = sweep_sub.add_parser(
        "status", help="completion summary for a sweep's output dir(s)")
    ps_status.add_argument("dirs", nargs="+",
                           help="sweep output directories")
    ps_status.add_argument("--spec", default=None,
                           help="spec file (default: sweep.json found in "
                                "the directories)")
    ps_status.add_argument("--shard-count", type=int, default=1,
                           help="also break completion down over N shards")

    ps_report = sweep_sub.add_parser(
        "report", help="merge point files from one or more output dirs "
                       "into an aggregate report (byte-deterministic)")
    ps_report.add_argument("dirs", nargs="+",
                           help="sweep output directories (e.g. the four "
                                "shard artifacts)")
    ps_report.add_argument("--spec", default=None,
                           help="spec file (default: sweep.json found in "
                                "the directories)")
    ps_report.add_argument("--out", default=None,
                           help="write report.json + report.txt here "
                                "instead of printing")
    ps_report.add_argument("--strict", action="store_true",
                           help="exit 1 when any grid point is missing")

    ps_cmp = sweep_sub.add_parser(
        "compare", help="diff two metric JSON files with per-metric "
                        "relative tolerances; exits 1 on regression")
    ps_cmp.add_argument("old", help="baseline JSON (e.g. the committed "
                                    "BENCH_emulator.json or a report.json)")
    ps_cmp.add_argument("new", help="candidate JSON")
    ps_cmp.add_argument("--key", action="append", default=[],
                        metavar="GLOB=TOL[:up|:down]",
                        help="tolerance rule for matching dotted paths; "
                             "first match wins (e.g. "
                             "'totals.*_speedup=0.8:down')")
    ps_cmp.add_argument("--default-tolerance", type=float, default=0.0,
                        help="relative tolerance for unmatched paths "
                             "(default 0: exact)")
    ps_cmp.add_argument("--only", action="append", default=[],
                        metavar="GLOB",
                        help="compare only paths matching these globs")
    ps_cmp.add_argument("--ignore", action="append", default=[],
                        metavar="GLOB",
                        help="skip paths matching these globs")
    ps_cmp.add_argument("--json", default=None, metavar="PATH",
                        dest="json_out",
                        help="write the structured comparison as JSON")
    ps_cmp.add_argument("--verbose", action="store_true",
                        help="print every compared value, not just "
                             "failures")
    return parser


def _cmd_list(args, out):
    out.write("%-6s %-7s %-44s\n" % ("name", "cat", "description"))
    for cls in WORKLOAD_CLASSES:
        out.write("%-6s %-7s %-44s\n"
                  % (cls.name, cls.category, cls.description))
    return 0


def _cmd_classify(args, out):
    if args.file:
        with open(args.file) as fh:
            module = parse_module(fh.read())
        for kernel in module:
            out.write(format_kernel_report(classify_kernel(kernel)) + "\n\n")
        return 0
    if not args.app:
        out.write("error: provide a workload name or --file\n")
        return 2
    workload = get_workload(args.app, scale=0.25)
    module = parse_module(workload.ptx())
    for kernel in module:
        out.write(format_kernel_report(classify_kernel(kernel)) + "\n\n")
    return 0


def _cmd_verify(args, out):
    from .ptx import verify_module

    if args.file:
        with open(args.file) as fh:
            module = parse_module(fh.read())
    elif args.app:
        workload = get_workload(args.app, scale=0.25)
        module = parse_module(workload.ptx())
    else:
        out.write("error: provide a workload name or --file\n")
        return 2
    report = verify_module(module)
    if len(report):
        out.write(report.format() + "\n")
    errors = len(report.errors())
    warnings = len(report.warnings())
    out.write("%d error(s), %d warning(s)\n" % (errors, warnings))
    return 1 if errors else 0


def _cmd_run(args, out):
    workload = get_workload(args.app, scale=args.scale, seed=args.seed)
    run = workload.run(engine=args.engine)
    trace = run.trace
    total = trace.total_warp_instructions()
    loads = trace.global_load_warp_count()
    out.write("%s (%s): %s\n" % (workload.name, workload.category,
                                 workload.data_set))
    out.write("  launches:               %d\n" % len(trace))
    out.write("  warp instructions:      %d\n" % total)
    out.write("  global load warps:      %d (%.2f%%)\n"
              % (loads, 100.0 * loads / total if total else 0.0))
    out.write("  shared load warps:      %d\n"
              % trace.shared_load_warp_count())
    det, nondet = run.dynamic_class_split()
    out.write("  dynamic D/N split:      %d / %d\n" % (det, nondet))
    out.write("  functional verification: PASS\n")
    return 0


def _cmd_simulate(args, out):
    # the report text is rendered by the same function the analysis
    # service embeds in result payloads — CI asserts the two surfaces
    # byte-match, so there is exactly one render path
    from .service.pipeline import build_job_config, render_simulation

    workload = get_workload(args.app, scale=args.scale, seed=args.seed)
    run = workload.run(engine=args.engine)
    config = build_job_config(vars(args))
    stats = GPU(config).run_application(run.trace, run.classifications)
    out.write(render_simulation(workload.name, stats, config,
                                run.classifications, top=args.top))
    return 0


def _cmd_figures(args, out):
    import os

    from .experiments import export_json
    from .experiments.runner import BENCH_CONFIG, ExperimentRunner
    from .experiments import tables, figures as fig
    from .obs.manifest import RunManifest
    from .obs.metrics import isolated_registry

    names = (args.apps.split(",") if args.apps else workload_names())
    run_manifest = RunManifest("figures", {
        "apps": names, "scale": args.scale, "jobs": args.jobs,
        "engine": args.engine, "trace_cache": args.trace_cache,
        "strict": args.strict, "timeout": args.timeout,
    })
    with isolated_registry() as registry:
        runner = ExperimentRunner(scale=args.scale, config=BENCH_CONFIG,
                                  jobs=args.jobs, engine=args.engine,
                                  use_trace_cache=args.trace_cache,
                                  strict=args.strict, timeout=args.timeout)
        try:
            mixed = runner.results(names)
        except Exception as exc:                # noqa: BLE001 — strict abort
            if not args.strict:
                raise
            out.write("error: %s: %s\n" % (type(exc).__name__, exc))
            return 1
        for result in mixed:
            run_manifest.record_result(result)
        run_manifest.attach_metrics(registry)
    results = [r for r in mixed if r.ok]
    failures = [r for r in mixed if not r.ok]

    from .resilience.artifacts import atomic_write_json

    os.makedirs(args.out, exist_ok=True)
    manifest = {
        "completed": [r.name for r in results],
        "failures": [f.to_json() for f in failures],
    }
    manifest_path = os.path.join(args.out, "failures.json")
    atomic_write_json(manifest_path, manifest)
    run_manifest_path = os.path.join(args.out, "manifest.json")
    run_manifest.finish().write(run_manifest_path)
    out.write("wrote %s\n" % run_manifest_path)
    summary = run_manifest.summary()
    if args.trace_cache:
        out.write("trace cache: %d hit(s), %d miss(es)\n"
                  % (summary["trace_cache_hits"],
                     summary["trace_cache_misses"]))
    for failure in failures:
        out.write("FAILED %s\n" % failure.format())
    if failures:
        out.write("continuing with %d of %d application(s); manifest: %s\n"
                  % (len(results), len(mixed), manifest_path))
    if not results:
        out.write("no application completed; wrote %s\n" % manifest_path)
        return 0
    renders = {
        "table1": tables.render_table1,
        "table3": tables.render_table3,
        "fig1": fig.render_fig1, "fig2": fig.render_fig2,
        "fig3": fig.render_fig3, "fig4": fig.render_fig4,
        "fig5": fig.render_fig5, "fig6": fig.render_fig6,
        "fig8": fig.render_fig8, "fig9": fig.render_fig9,
        "fig10": fig.render_fig10, "fig11": fig.render_fig11,
        "fig12": fig.render_fig12,
    }
    for name, render in renders.items():
        path = os.path.join(args.out, "%s.txt" % name)
        with open(path, "w") as fh:
            fh.write(render(results) + "\n")
        out.write("wrote %s\n" % path)
    json_path = os.path.join(args.out, "results.json")
    export_json(results, path=json_path)
    out.write("wrote %s\n" % json_path)
    out.write("wrote %s\n" % manifest_path)
    return 0


def _cmd_trace(args, out):
    from .experiments.runner import BENCH_CONFIG, ExperimentRunner
    from .obs import tracing
    from .obs.metrics import isolated_registry

    tracer = tracing.Tracer()
    with isolated_registry(), tracing.use_tracer(tracer):
        with tracing.span("pipeline", app=args.app, scale=args.scale):
            runner = ExperimentRunner(
                scale=args.scale, config=BENCH_CONFIG,
                simulate=not args.no_simulate, engine=args.engine)
            runner.result(args.app)
    out.write(tracer.render_tree())
    if args.trace_out:
        tracer.write_chrome_trace(args.trace_out)
        out.write("wrote %s (load in Perfetto or chrome://tracing)\n"
                  % args.trace_out)
    return 0


def _cmd_metrics(args, out):
    from .experiments.runner import BENCH_CONFIG, ExperimentRunner
    from .obs.export import render
    from .obs.metrics import isolated_registry

    names = (args.apps.split(",") if args.apps else workload_names())
    with isolated_registry() as registry:
        runner = ExperimentRunner(scale=args.scale, config=BENCH_CONFIG,
                                  simulate=not args.no_simulate,
                                  strict=False)
        mixed = runner.results(names)
        for failure in (r for r in mixed if not r.ok):
            out.write("FAILED %s\n" % failure.format())
        # the same render the service's GET /metrics uses (obs.export
        # is the single registry-export path)
        text = render(registry, fmt=args.fmt)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        out.write("wrote %s\n" % args.out)
    else:
        out.write(text)
    return 0


def _cmd_serve(args, out):
    from .service.app import AnalysisService
    from .service.http import ServiceServer

    service = AnalysisService(
        args.store, quota=args.quota, workers=args.workers,
        use_trace_cache=not args.no_trace_cache).start()
    server = ServiceServer(service, host=args.host, port=args.port,
                           verbose=not args.quiet)
    out.write("serving on %s (store: %s, workers: %d%s)\n"
              % (server.url, service.store.describe(), args.workers,
                 ", quota: %d" % args.quota if args.quota else ""))
    if service.queue.recovered_ids:
        out.write("recovered %d queued job(s) from the store\n"
                  % len(service.queue.recovered_ids))
    if hasattr(out, "flush"):
        out.flush()  # the boot line gates CI readiness polling
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        service.stop()
    return 0


def _cmd_cache(args, out):
    from .emulator import trace_cache

    if args.action == "clear":
        removed = trace_cache.clear()
        out.write("removed %d cached trace(s)\n" % removed)
        return 0
    count, total = trace_cache.stats()
    out.write("directory: %s\n" % trace_cache.cache_dir())
    out.write("enabled:   %s\n" % ("yes" if trace_cache.cache_enabled()
                                   else "no (REPRO_TRACE_CACHE=0)"))
    out.write("entries:   %d (%.1f KiB)\n" % (count, total / 1024.0))
    qcount, qtotal = trace_cache.quarantine_stats()
    if qcount:
        out.write("quarantined: %d (%.1f KiB) in %s\n"
                  % (qcount, qtotal / 1024.0,
                     trace_cache.cache_dir() / ".corrupt"))
    return 0


def _cmd_races(args, out):
    import json

    from .analysis import analyze_workload

    if args.all_apps:
        names = workload_names(include_extended=True)
    elif args.app:
        names = [args.app]
    else:
        out.write("error: provide a workload name or --all\n")
        return 2
    reports = []
    for name in names:
        report = analyze_workload(name, scale=args.scale, seed=args.seed,
                                  engine=args.engine, mode=args.mode)
        reports.append(report)
        out.write(report.format() + "\n")
    findings = sum(len(r.findings) for r in reports)
    if args.json_out:
        payload = {"scale": args.scale, "seed": args.seed,
                   "mode": args.mode, "clean": findings == 0,
                   "reports": [r.to_json() for r in reports]}
        with open(args.json_out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        out.write("wrote %s\n" % args.json_out)
    if findings:
        out.write("%d finding(s) across %d application(s)\n"
                  % (findings, len(reports)))
        return 0 if args.no_fail else 1
    return 0


def _cmd_sweep_run(args, out):
    from .obs.metrics import isolated_registry
    from .sweep import (SpecError, SweepEngine, SweepError, SweepSpec,
                        parse_shard)

    try:
        spec = SweepSpec.load(args.spec)
        shard_index, shard_count = parse_shard(args.shard)
    except SpecError as exc:
        out.write("error: %s\n" % exc)
        return 2
    engine = SweepEngine(
        spec, args.out, jobs=args.jobs, engine=args.engine,
        use_trace_cache=not args.no_trace_cache, strict=args.strict)
    with isolated_registry():
        try:
            summary = engine.run(shard_index, shard_count)
        except SweepError as exc:
            out.write("error: %s\n" % exc)
            return 1
    out.write("sweep %s: shard %d/%d -> %s\n"
              % (spec.name, shard_index, shard_count, args.out))
    out.write("  points:   %d selected of %d total\n"
              % (summary["selected"], summary["total"]))
    out.write("  computed: %d\n  cached:   %d\n  failed:   %d\n"
              % (summary["computed"], summary["cached"],
                 summary["failed"]))
    for outcome in summary["outcomes"]:
        if outcome.status == "failed":
            out.write("FAILED %s: %s\n"
                      % (outcome.params, outcome.error))
    return 1 if summary["failed"] else 0


def _cmd_sweep_status(args, out):
    from .sweep import ReportError, SpecError, load_sweep_spec, sweep_status

    try:
        spec = load_sweep_spec(args.dirs, args.spec)
    except (ReportError, SpecError) as exc:
        out.write("error: %s\n" % exc)
        return 2
    status = sweep_status(spec, args.dirs, shard_count=args.shard_count)
    out.write("sweep %s: %d/%d point(s) done (%d missing)\n"
              % (spec.name, status["done"], status["total"],
                 status["missing"]))
    if args.shard_count > 1:
        for entry in status["shards"]:
            out.write("  shard %d/%d: %d/%d done\n"
                      % (entry["shard"], args.shard_count,
                         entry["done"], entry["points"]))
    return 0


def _cmd_sweep_report(args, out):
    from .sweep import (
        ReportError,
        SpecError,
        build_report,
        load_sweep_spec,
        render_report,
        scan_points,
        write_report,
    )

    try:
        spec = load_sweep_spec(args.dirs, args.spec)
    except (ReportError, SpecError) as exc:
        out.write("error: %s\n" % exc)
        return 2
    report = build_report(spec, scan_points(args.dirs))
    if args.out:
        json_path, txt_path = write_report(spec, report, args.out)
        out.write("wrote %s\nwrote %s\n" % (json_path, txt_path))
    else:
        out.write(render_report(spec, report) + "\n")
    if report["missing"]:
        out.write("missing %d of %d point(s)\n"
                  % (len(report["missing"]), report["points_total"]))
        if args.strict:
            return 1
    return 0


def _cmd_sweep_compare(args, out):
    import json

    from .sweep import compare_files, parse_rule

    try:
        rules = [parse_rule(text) for text in args.key]
    except ValueError as exc:
        out.write("error: %s\n" % exc)
        return 2
    try:
        result = compare_files(
            args.old, args.new, rules=rules,
            default_tolerance=args.default_tolerance,
            only=args.only, ignore=args.ignore)
    except (OSError, ValueError) as exc:
        out.write("error: %s\n" % exc)
        return 2
    out.write(result.format(verbose=args.verbose) + "\n")
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(result.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        out.write("wrote %s\n" % args.json_out)
    return 0 if result.ok else 1


def _cmd_advise(args, out):
    import json
    import os

    from .advise import advise_app
    from .experiments.runner import BENCH_CONFIG, ExperimentRunner
    from .obs.manifest import RunManifest
    from .obs.metrics import isolated_registry
    from .sim.config import TINY

    config = {"bench": BENCH_CONFIG, "tiny": TINY,
              "c2050": TESLA_C2050}[args.config]
    run_manifest = RunManifest("advise", {
        "app": args.app, "scale": args.scale, "engine": args.engine,
        "config": args.config, "trace_cache": args.trace_cache,
        "verify": not args.no_verify, "max_requests": args.max_requests,
        "cluster": args.cluster,
    })
    with isolated_registry() as registry:
        runner = ExperimentRunner(
            scale=args.scale, config=config,
            simulate=not args.no_verify, engine=args.engine,
            use_trace_cache=args.trace_cache, strict=False)
        report = advise_app(
            args.app, runner=runner, verify=not args.no_verify,
            max_requests=args.max_requests, cluster_size=args.cluster,
            registry=registry)
        result = runner.result(args.app)
        run_manifest.record_result(result)
        run_manifest.attach_metrics(registry)
    run_manifest.extras["verdict"] = report.verdict
    run_manifest.extras["recommendation"] = report.recommendation

    out.write(report.format(top=args.top) + "\n")

    def _dump(path, payload):
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        out.write("wrote %s\n" % path)

    if args.json_out:
        _dump(args.json_out, report.to_json())
    if args.heatmap_out:
        if report.heatmap is None:
            out.write("no heat map produced (profiling failed)\n")
        else:
            _dump(args.heatmap_out, report.heatmap.to_json())
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _dump(os.path.join(args.out, "advice.json"), report.to_json())
        if report.heatmap is not None:
            _dump(os.path.join(args.out, "heatmap.json"),
                  report.heatmap.to_json())
        manifest_path = os.path.join(args.out, "manifest.json")
        run_manifest.finish().write(manifest_path)
        out.write("wrote %s\n" % manifest_path)
    return 0 if result.ok else 1


_SWEEP_COMMANDS = {
    "run": _cmd_sweep_run,
    "status": _cmd_sweep_status,
    "report": _cmd_sweep_report,
    "compare": _cmd_sweep_compare,
}


def _cmd_sweep(args, out):
    return _SWEEP_COMMANDS[args.sweep_command](args, out)


_COMMANDS = {
    "list": _cmd_list,
    "classify": _cmd_classify,
    "verify": _cmd_verify,
    "run": _cmd_run,
    "simulate": _cmd_simulate,
    "figures": _cmd_figures,
    "trace": _cmd_trace,
    "metrics": _cmd_metrics,
    "cache": _cmd_cache,
    "serve": _cmd_serve,
    "races": _cmd_races,
    "advise": _cmd_advise,
    "sweep": _cmd_sweep,
}


def main(argv=None, out=None):
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args, out)
    except BrokenPipeError:
        # downstream pager/head closed the pipe: not an error
        return 0


if __name__ == "__main__":
    sys.exit(main())
