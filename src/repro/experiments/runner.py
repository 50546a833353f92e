"""Shared experiment runner: classify -> emulate -> simulate -> analyze.

Every table/figure module consumes :class:`AppResult` objects produced
here.  Three layers of reuse keep the many per-figure benchmarks cheap:

* an in-process cache per (workload, scale, config), so figures
  sharing an application run do not re-simulate it;
* the content-addressed on-disk trace cache
  (:mod:`repro.emulator.trace_cache`), so a *process* restart does not
  re-emulate unchanged workloads — by far the most expensive step; and
* an optional process pool (``jobs > 1``) that runs independent
  applications in parallel with deterministic result ordering.

Fault isolation: with ``strict=False`` a failing application degrades to
an :class:`AppFailure` (which records the pipeline stage and any
structured context the exception carried — kernel, pc, warp, lane, ...)
instead of aborting the whole experiment; :meth:`ExperimentRunner.results`
then returns a mix of :class:`AppResult` and :class:`AppFailure` and the
figure harness renders whatever completed.  ``strict=True`` (the
default) re-raises, so programmatic users keep fail-fast semantics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..emulator import MemoryImage, trace_cache
from ..emulator.machine import DEFAULT_ENGINE
from ..obs import bridge, tracing
from ..obs.metrics import get_registry
from ..profiling.heatmap import HeatMapReport
from ..profiling.locality import LocalityReport
from ..profiling.trace_profile import profile_trace
from ..ptx import parse_module, print_module
from ..sim.coalescer import CoalescingSummary
from ..sim.config import GPUConfig, TESLA_C2050
from ..sim.gpu import GPU
from ..resilience.errors import error_context
from ..resilience.guards import check_memory_budget
from ..sim.stats import SimStats
from ..testing.faults import check_fault
from ..workloads.base import WorkloadRun
from ..workloads.registry import get_workload, workload_names

#: Configuration used by the benchmark harness: the paper's Tesla C2050
#: model with SM count *and cache capacities* scaled down in proportion to
#: the scaled workload inputs, so that working sets exceed the caches just
#: as the paper's full-size inputs exceed the real 16 KB L1 / 768 KB L2
#: (DESIGN.md section 6).  Line size, associativity and all latencies stay
#: at their Table II values.
BENCH_CONFIG = TESLA_C2050.scaled(
    num_sms=4,
    num_partitions=2,
    l1_size=2 * 1024,
    l1_mshr_entries=32,
    l2_size=64 * 1024,
    l2_mshr_entries=16,
    icnt_credits_per_sm=24,
)

#: default input scale for the benchmark harness.
BENCH_SCALE = 0.5


@dataclass
class AppResult:
    """Everything measured for one application."""

    name: str
    category: str
    run: WorkloadRun
    stats: Optional[SimStats]
    #: the three reports of the one trace-profile pass
    #: (:func:`~repro.profiling.trace_profile.profile_trace`), at the
    #: config's L1 line size.
    locality: LocalityReport
    heatmap: HeatMapReport
    coalescing: CoalescingSummary
    config: GPUConfig
    #: provenance riding along with the result — wall_seconds,
    #: trace_cache ("hit"/"miss"), engine, seed.  Picklable, so the
    #: parallel runner's parent process can republish it into the
    #: metrics registry and stamp it into run manifests even though the
    #: worker's registry died with the worker.
    meta: Dict[str, object] = field(default_factory=dict)

    #: discriminator shared with :class:`AppFailure`.
    ok = True

    @property
    def trace(self):
        return self.run.trace


@dataclass
class AppFailure:
    """A degraded result: the application failed at ``stage``.

    ``context`` holds whatever structured fields the exception carried
    (kernel, pc, cta, warp, lane, address, ...), so failure manifests
    can say *where* a workload faulted, not just that it did.
    """

    name: str
    #: "emulate" | "simulate" | "analyze"; "unknown" for a parallel job
    #: that timed out, since the parent cannot see where its worker hung
    stage: str
    error: str                      # exception class name
    message: str
    context: Dict[str, object] = field(default_factory=dict)

    ok = False

    def to_json(self):
        return {"name": self.name, "stage": self.stage,
                "error": self.error, "message": self.message,
                "context": self.context}

    def format(self):
        where = ", ".join("%s=%s" % kv for kv in sorted(self.context.items())
                          if kv[0] != "warp_status")
        base = "%s: %s at stage %r: %s" % (self.name, self.error,
                                           self.stage, self.message)
        return base if not where else "%s [%s]" % (base, where)


def _failure_from(name, stage, exc):
    context = error_context(exc)
    # an injected fault's own stage is the record's ``stage`` field
    context.pop("stage", None)
    return AppFailure(name=name, stage=stage,
                      error=type(exc).__name__,
                      message=str(exc), context=context)


class ExperimentRunner:
    """Runs applications once and caches their results.

    ``use_trace_cache`` consults/populates the on-disk trace cache (a
    hit skips emulation *and* functional verification — the trace was
    verified when it was first produced and is content-addressed, so a
    stale hit is impossible).  ``engine`` selects the emulator engine
    for cold runs; ``jobs`` parallelizes :meth:`results` across a
    process pool.

    ``strict=False`` isolates per-application failures: :meth:`result`
    returns an :class:`AppFailure` instead of raising, and sibling
    applications are unaffected.  ``timeout`` (seconds, parallel runs
    only) bounds how long :meth:`results` waits for any one
    application's worker; an application that exceeds it is recorded
    as a ``TimeoutError`` failure and its worker is stopped before
    :meth:`results` returns, so a hung job cannot outlive the run.
    """

    def __init__(self, scale=BENCH_SCALE, config=BENCH_CONFIG,
                 simulate=True, verify=True, jobs=1, use_trace_cache=False,
                 engine=None, strict=True, timeout=None, seed=None):
        self.scale = scale
        self.seed = seed
        self.config = config
        self.simulate = simulate
        self.verify = verify
        self.jobs = max(1, int(jobs))
        self.use_trace_cache = use_trace_cache
        self.engine = engine
        self.strict = strict
        self.timeout = timeout
        self._cache: Dict[str, AppResult] = {}
        self._failures: Dict[str, AppFailure] = {}
        self._stage = "emulate"

    # -- emulation (with optional on-disk memoization) --------------------

    def _emulate(self, name):
        """Produce the :class:`WorkloadRun` for ``name`` — from the
        trace cache when possible, by running the emulator otherwise."""
        # the same hook Workload.run fires, so injection also covers the
        # cache-hit path (which skips Workload.run entirely)
        check_fault(name, "emulate")
        if self.seed is not None:
            workload = get_workload(name, scale=self.scale, seed=self.seed)
        else:
            workload = get_workload(name, scale=self.scale)
        key = None
        cache_status = None
        if self.use_trace_cache and trace_cache.cache_enabled():
            ptx = print_module(parse_module(workload.ptx()))
            key = trace_cache.trace_key(
                name, ptx, workload.seed, workload.scale)
            loaded = trace_cache.lookup(key)
            if loaded is not None:
                # Re-run input generation only: some Table I metadata
                # (data-set descriptions) is computed in setup().  The
                # final memory image is not reconstructed — downstream
                # consumers only read the trace and classifications.
                workload.setup(MemoryImage())
                return workload, WorkloadRun(
                    workload=workload,
                    module=loaded.module,
                    memory=None,
                    trace=loaded.trace,
                    classifications=loaded.classifications,
                ), "hit"
            cache_status = "miss"
        run = workload.run(verify=self.verify, engine=self.engine)
        if key is not None:
            trace_cache.store(key, run)
        return workload, run, cache_status

    def workload_run(self, name):
        """Emulate one application (trace cache permitting) without
        simulating or profiling it.

        This is the sweep engine's entry point: a parameter sweep
        re-simulates one trace under many configurations, so it wants
        the :class:`WorkloadRun` alone — classification, trace and
        kernels — and performs the timing runs itself.  Shares the
        trace-cache/fault-injection path of the full pipeline.
        """
        with tracing.span("emulate", app=name, scale=self.scale):
            _workload, run, _cache_status = self._emulate(name)
        return run

    def _compute(self, name):
        """The fail-fast pipeline for one application.  ``self._stage``
        tracks progress so non-strict callers can attribute a failure."""
        started = time.perf_counter()
        with tracing.span("app", app=name, scale=self.scale) as app_span:
            self._stage = "emulate"
            workload, run, cache_status = self._emulate(name)
            stats = None
            if self.simulate:
                self._stage = "simulate"
                check_fault(name, "simulate")
                check_memory_budget("simulation of %s" % name)
                with tracing.span("simulate", app=name) as sp:
                    gpu = GPU(self.config)
                    stats = gpu.run_application(run.trace,
                                                run.classifications)
                    sp.set(cycles=stats.cycles)
                    # per-component series (partitions, icnt, MSHRs) are
                    # published where the GPU object lives; the aggregate
                    # SimStats is published by _record in the parent
                    gpu.publish_metrics(get_registry(),
                                        include_stats=False, app=name)
            self._stage = "analyze"
            check_fault(name, "analyze")
            check_memory_budget("analysis of %s" % name)
            with tracing.span("profile", app=name) as sp:
                profile = profile_trace(run.trace, run.classifications,
                                        self.config.l1_line_size)
                sp.set(lines=profile.heatmap.num_lines,
                       accesses=profile.heatmap.total_touches)
            if cache_status is not None:
                app_span.set(trace_cache=cache_status)
        meta = {
            "wall_seconds": time.perf_counter() - started,
            # the engine that actually produced the trace (post
            # fallback) when the run records it; the configured engine
            # otherwise (cache hits skip emulation entirely)
            "engine": run.engine or (self.engine if self.engine is not None
                                     else DEFAULT_ENGINE),
            "seed": workload.seed,
        }
        if run.fallbacks:
            meta["fallbacks"] = list(run.fallbacks)
        if cache_status is not None:
            meta["trace_cache"] = cache_status
        return AppResult(
            name=name,
            category=workload.category,
            run=run,
            stats=stats,
            locality=profile.locality,
            heatmap=profile.heatmap,
            coalescing=profile.coalescing,
            config=self.config,
            meta=meta,
        )

    # -- registry publication ---------------------------------------------

    def _record(self, result, from_worker=False):
        """Publish one fresh :class:`AppResult` into the metrics
        registry: the full figure-input series plus runner bookkeeping.

        Called exactly once per computed result — in-process cache hits
        do not republish, and the parallel path calls it from the
        *parent* (the worker's registry dies with the worker).
        ``from_worker`` additionally replays the worker's fallback
        events into the parent registry; in-process runs already
        counted them at the point of downgrade.
        """
        registry = get_registry()
        bridge.publish_result(result, registry)
        registry.counter(
            "runner.apps", "applications run, by outcome").inc(
            1, status="ok")
        cache_status = result.meta.get("trace_cache")
        if cache_status is not None:
            registry.counter(
                "runner.trace_cache",
                "per-application trace-cache outcomes").inc(
                1, result=cache_status)
        if from_worker:
            for event in result.meta.get("fallbacks", ()):
                labels = {k: event[k] for k in ("from", "to", "reason",
                                                "app") if k in event}
                registry.counter(
                    "engine.fallbacks",
                    "engine downgrades after an infrastructure "
                    "failure").inc(1, **labels)

    def _record_failure(self, failure):
        """Publish one :class:`AppFailure` into the metrics registry —
        the same records that reach ``failures.json`` and the manifest,
        so the three can never disagree."""
        registry = get_registry()
        registry.counter(
            "runner.apps", "applications run, by outcome").inc(
            1, status="failed")
        registry.counter(
            "runner.failures",
            "per-application failures by stage and error class").inc(
            1, app=failure.name, stage=failure.stage, error=failure.error)

    def result(self, name):
        """Run (or fetch the cached run of) one application.

        With ``strict=False`` a failure is captured as (and subsequently
        returned from the cache as) an :class:`AppFailure`.
        """
        cached = self._cache.get(name)
        if cached is not None:
            return cached
        failed = self._failures.get(name)
        if failed is not None:
            if self.strict:
                raise RuntimeError(failed.format())
            return failed
        if self.strict:
            result = self._compute(name)
        else:
            try:
                result = self._compute(name)
            except Exception as exc:            # noqa: BLE001 — isolation
                failure = _failure_from(name, self._stage, exc)
                self._failures[name] = failure
                self._record_failure(failure)
                return failure
        self._cache[name] = result
        self._record(result)
        return result

    def results(self, names=None):
        """Results for several applications (default: all 15, Table I
        order).  With ``jobs > 1`` the uncached applications run in a
        process pool; result order always matches ``names`` order.

        Under ``strict=False`` the returned list may contain
        :class:`AppFailure` entries; filter with ``r.ok``.
        """
        if names is None:
            names = workload_names()
        names = list(names)
        if self.jobs > 1:
            self._fill_parallel(names)
        return [self.result(name) for name in names]

    def _spec(self, strict=True):
        """Constructor kwargs reproducing this runner in a worker.

        Workers always run strict so the original exception propagates
        through the future; the parent decides whether to isolate it.
        """
        return {
            "scale": self.scale,
            "seed": self.seed,
            "config": self.config,
            "simulate": self.simulate,
            "verify": self.verify,
            "jobs": 1,
            "use_trace_cache": self.use_trace_cache,
            "engine": self.engine,
            "strict": strict,
        }

    def _fill_parallel(self, names):
        """Compute missing results for ``names`` in a process pool
        (:func:`~repro.resilience.pool.run_in_pool`).

        A name that times out is recorded as a ``TimeoutError``
        :class:`AppFailure` at stage ``"unknown"`` (raised in strict
        mode); every other name the pool did not deliver, one that never
        started included, is left to the serial pass of
        :meth:`results`, which runs it in-process — so strict mode
        raises from a clean in-process traceback and non-strict mode
        captures structured context off the live exception.
        """
        from ..resilience.pool import run_in_pool

        missing = [n for n in names
                   if n not in self._cache and n not in self._failures]
        if len(missing) < 2:
            return
        spec = self._spec()
        delivered, timed_out = run_in_pool(
            _run_single, [(name, spec) for name in missing],
            workers=min(self.jobs, len(missing)), timeout=self.timeout)
        for index, name in enumerate(missing):
            if index in delivered:
                result = delivered[index]
                self._cache[name] = result
                # republish in the parent: the worker's registry (and
                # spans) died with the worker process
                self._record(result, from_worker=True)
            elif index in timed_out:
                failure = AppFailure(
                    name=name, stage="unknown", error="TimeoutError",
                    message="job exceeded the %ss per-application "
                            "timeout" % self.timeout)
                if self.strict:
                    raise RuntimeError(failure.format())
                self._failures[name] = failure
                self._record_failure(failure)

    def failures(self):
        """Failures recorded so far (non-strict mode), in no particular
        order."""
        return list(self._failures.values())

    def clear(self):
        self._cache.clear()
        self._failures.clear()


def _run_single(job):
    """Worker entry point: compute one :class:`AppResult` in a child
    process (module-level so it pickles under the spawn start method)."""
    name, spec = job
    return ExperimentRunner(**spec).result(name)


#: process-wide default runner shared by the benchmark suite.
_default_runner: Optional[ExperimentRunner] = None


def default_runner():
    """The module-level shared runner (created on first use)."""
    global _default_runner
    if _default_runner is None:
        _default_runner = ExperimentRunner()
    return _default_runner
