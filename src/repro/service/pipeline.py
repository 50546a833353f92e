"""The analysis pipeline a service worker runs for one job.

:func:`execute_job` turns a validated
:class:`~repro.service.jobs.JobRequest` into a **deterministic** JSON
result payload: D/N load classification, timing-simulation statistics
with the critical-load ranking, an optional race report and an
optional advisor verdict.  Deterministic means byte-identical across
runs, machines and cache states — the payload carries counts, cycles
and rendered reports but never wall-clock, hostnames or registry
snapshots — which is what makes results content-addressable by the
request key and lets the CI service job assert that the HTTP answer
byte-matches the in-process CLI pipeline.

Value-identity with the CLI is by construction, not by convention:

* classification text is :func:`repro.core.format_kernel_report` — the
  exact function ``repro classify`` prints;
* the simulation block is :func:`render_simulation`, which
  ``repro simulate`` itself calls, over a config both surfaces build
  with :func:`build_job_config` from the same knob names;
* race reports are :meth:`~repro.analysis.races.RaceReport.to_json`,
  the same structure ``repro races --json`` writes.

Emulation goes through the fault-isolated, trace-cached
:class:`~repro.experiments.runner.ExperimentRunner`, so service
workers share traces with every other consumer and honor the
``REPRO_INJECT_FAULTS`` hooks the chaos tests drive.
"""

from __future__ import annotations

import io

from ..core import format_kernel_report
from ..profiling.critical import format_critical_loads, rank_critical_loads
from ..profiling.turnaround import class_breakdown
from ..ptx import parse_module, print_module, verify_module
from ..sim.config import TESLA_C2050
from .jobs import (
    JOB_SCHEMA_VERSION,
    KNOB_DEFAULTS,
    JobError,
    JobRequest,
    _versions,
)

__all__ = [
    "build_job_config",
    "canonical_ptx",
    "execute_job",
    "render_simulation",
]


def build_job_config(knobs):
    """The validated :class:`~repro.sim.config.GPUConfig` for the
    simulator knobs of :data:`~repro.service.jobs.KNOB_DEFAULTS`.

    ``knobs`` maps every knob name to its value: a job's effective
    knobs, or the ``repro simulate`` arguments, whose flags carry the
    same names.  Both surfaces build their config here, so equal knobs
    produce equal configs (and therefore equal numbers)."""
    return TESLA_C2050.scaled(
        num_sms=knobs["sms"],
        num_partitions=knobs["partitions"],
        l1_size=knobs["l1_kb"] * 1024,
        l2_size=knobs["l2_kb"] * 1024,
        warp_scheduler=knobs["scheduler"],
        prefetcher=knobs["prefetcher"],
        cta_policy=knobs["cta_policy"],
    ).validate()


def render_simulation(name, stats, config, classifications, top=8):
    """The ``repro simulate`` report text (shared with the CLI: there
    is exactly one rendering of a simulation and the parity check in CI
    compares it byte-for-byte over HTTP vs stdout)."""
    out = io.StringIO()
    out.write("%s simulated: %d warp insts in %d cycles\n"
              % (name, stats.issued_warp_insts, stats.cycles))
    for label in ("D", "N"):
        cls = stats.classes[label]
        if cls.warp_insts == 0:
            continue
        breakdown = class_breakdown(stats, config, label)
        out.write("  [%s] %d loads | %.2f req/warp | L1 miss %.0f%% | "
                  "L2 miss %.0f%% | turnaround %.0f cycles\n"
                  % (label, cls.warp_insts, cls.requests_per_warp(),
                     100 * cls.l1_miss_ratio(), 100 * cls.l2_miss_ratio(),
                     breakdown.total))
    out.write("  L1 cycles lost to reservation fails: %.0f%%\n"
              % (100 * stats.reservation_fail_fraction()))
    idle = stats.unit_idle_fractions()
    out.write("  unit idle: SP %.0f%%  SFU %.0f%%  LD/ST %.0f%%\n"
              % (100 * idle["sp"], 100 * idle["sfu"], 100 * idle["ldst"]))
    if stats.prefetch_issued:
        out.write("  prefetches issued: %d\n" % stats.prefetch_issued)
    out.write("\n")
    loads = rank_critical_loads(stats, config, classifications, top=top)
    out.write(format_critical_loads(loads, limit=top) + "\n")
    return out.getvalue()


def canonical_ptx(source):
    """The parser/printer-canonicalized form of PTX source (cosmetic
    differences vanish; a parse error becomes a :class:`JobError`)."""
    try:
        return print_module(parse_module(source))
    except Exception as exc:  # noqa: BLE001 — user input boundary
        raise JobError("unparsable PTX: %s: %s"
                       % (type(exc).__name__, exc)) from exc


def check_ptx_matches_app(request):
    """When a request carries both an ``app`` and raw ``ptx``, the PTX
    must canonicalize to the registered workload's kernels — otherwise
    the workload's inputs and launch geometry would be meaningless for
    the submitted code.  Raises :class:`JobError` on mismatch."""
    if not (request.app and request.ptx):
        return
    from ..workloads import get_workload

    workload = get_workload(request.app, scale=request.scale,
                            seed=request.seed)
    if canonical_ptx(request.ptx) != canonical_ptx(workload.ptx()):
        raise JobError(
            "submitted ptx does not match workload %r (after "
            "canonicalization); submit it without 'app' for static "
            "analysis" % request.app)


def _classification_payload(module, classifications, dynamic_split=None):
    kernels = []
    for kernel in module:
        result = classifications[kernel.name]
        kernels.append({
            "name": kernel.name,
            "text": format_kernel_report(result),
            "deterministic": len(result.deterministic),
            "nondeterministic": len(result.nondeterministic),
            "loads": [
                {
                    "pc": load.pc,
                    "class": str(load.load_class),
                    "instruction": str(load.instruction),
                    "tainted_by": list(load.tainting_pcs),
                }
                for load in result
            ],
        })
    out = {"kernels": kernels}
    if dynamic_split is not None:
        det, nondet = dynamic_split
        out["dynamic_split"] = {"deterministic": det,
                                "nondeterministic": nondet}
    return out


def _simulation_payload(name, stats, config, classifications, top):
    classes = {}
    for label in ("D", "N"):
        cls = stats.classes[label]
        if cls.warp_insts == 0:
            continue
        breakdown = class_breakdown(stats, config, label)
        classes[label] = {
            "loads": cls.warp_insts,
            "requests_per_warp": cls.requests_per_warp(),
            "l1_miss_ratio": cls.l1_miss_ratio(),
            "l2_miss_ratio": cls.l2_miss_ratio(),
            "turnaround_cycles": breakdown.total,
        }
    idle = stats.unit_idle_fractions()
    ranked = rank_critical_loads(stats, config, classifications, top=top)
    return {
        "cycles": stats.cycles,
        "issued_warp_insts": stats.issued_warp_insts,
        "classes": classes,
        "reservation_fail_fraction": stats.reservation_fail_fraction(),
        "unit_idle": {unit: idle[unit] for unit in sorted(idle)},
        "dram_reads": stats.dram_reads,
        "dram_writes": stats.dram_writes,
        "prefetch_issued": stats.prefetch_issued,
        "critical_loads": [
            {
                "kernel": load.kernel,
                "pc": load.pc,
                "class": load.load_class,
                "executions": load.executions,
                "total_requests": load.total_requests,
                "mean_turnaround": load.mean_turnaround,
            }
            for load in ranked[:top]
        ],
        "text": render_simulation(name, stats, config, classifications,
                                  top=top),
    }


def _execute_static(request):
    """PTX-only job: static verification + classification (no inputs,
    so nothing dynamic can run)."""
    from ..core import classify_kernel

    module = parse_module(request.ptx)
    report = verify_module(module)
    errors = len(report.errors())
    payload = {
        "schema": JOB_SCHEMA_VERSION,
        "kind": "static",
        "app": None,
        "request": request.canonical(),
        "versions": _versions(),
        "verification": {
            "errors": errors,
            "warnings": len(report.warnings()),
            "text": report.format() if len(report) else "",
        },
        "classification": None,
        "simulation": None,
        "races": None,
        "advise": None,
    }
    if not errors:
        classifications = {kernel.name: classify_kernel(kernel)
                           for kernel in module}
        payload["classification"] = _classification_payload(
            module, classifications)
    return payload


def execute_job(request, use_trace_cache=True):
    """Run one job request end-to-end; returns the result payload.

    Raises :class:`JobError` for requests that can never succeed and
    lets pipeline failures (memory faults, watchdogs, injected faults)
    propagate — the worker records those as the job's structured
    failure.
    """
    if isinstance(request, dict):
        request = JobRequest.from_json(request)
    request.validate()
    if request.app is None:
        return _execute_static(request)
    check_ptx_matches_app(request)

    from ..experiments.runner import ExperimentRunner

    config = build_job_config(dict(KNOB_DEFAULTS, **dict(request.knobs)))
    runner = ExperimentRunner(
        scale=request.scale, seed=request.seed, config=config,
        simulate=request.simulate, engine=request.engine,
        use_trace_cache=use_trace_cache, strict=True)
    result = runner.result(request.app)
    run = result.run
    payload = {
        "schema": JOB_SCHEMA_VERSION,
        "kind": "app",
        "app": request.app,
        "request": request.canonical(),
        "versions": _versions(),
        # the runner's meta resolves the engine identically whether the
        # trace came fresh or from the cache (run.engine is "" on a
        # cache hit) — payload bytes must not depend on cache state
        "engine": result.meta.get("engine"),
        "classification": _classification_payload(
            run.module, run.classifications,
            dynamic_split=run.dynamic_class_split()),
        "simulation": None,
        "races": None,
        "advise": None,
    }
    if result.stats is not None:
        payload["simulation"] = _simulation_payload(
            request.app, result.stats, config, run.classifications,
            top=request.knob("top"))
    if request.races:
        from ..analysis import analyze_trace

        report = analyze_trace(run.trace, run.classifications,
                               app=request.app, mode=request.races)
        payload["races"] = dict(report.to_json(), mode=request.races,
                                text=report.format())
    if request.advise:
        from ..advise import advise_app

        report = advise_app(request.app, runner=runner,
                            verify=request.simulate)
        payload["advise"] = {
            "verified": report.verified,
            "diagnoses": len(report.diagnoses),
            "recommendation": report.recommendation,
            "verdict": report.verdict,
        }
    return payload
