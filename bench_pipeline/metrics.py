"""Metric names, units and the arithmetic that turns passes into them.

End-to-end metrics come from the untraced run, per-layer metrics from
the traced run.  Every per-layer metric is reported on every workload;
a layer a workload does not exercise (or, for ``service-mix``, cannot
observe from the client) reads 0.
"""

from __future__ import annotations

import math
import statistics

from layers import STAGES, self_ms, total_ms
from service_mix import VARIANTS

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "jobs/s",
    "job_ms_geomean": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "experiments.job_self_ms": "ms",
    "ptx.parse_ms": "ms",
    "core.classify_ms": "ms",
    "workloads.setup_ms": "ms",
    "emulator.emulate_ms": "ms",
    "workloads.verify_ms": "ms",
    "emulator.warp_insts_per_s": "warp_insts/s",
    "emulator.fallbacks": "count",
    "emulator.trace_cache.store_ms": "ms",
    "emulator.trace_cache.lookup_ms": "ms",
    "emulator.trace_cache.hit_ratio": "ratio",
    "sim.simulate_ms": "ms",
    "sim.host_ns_per_cycle": "ns/cycle",
    "sim.warp_insts_per_s": "warp_insts/s",
    "sim.loop_iterations": "count",
    "sim.cycles_skipped_ratio": "ratio",
    "sim.loop_self_ms": "ms",
    "sim.sm_cycle.calls": "count",
    "sim.sm_cycle.useful_ratio": "ratio",
    "sim.sm_cycle.self_ms": "ms",
    "sim.sm_receive.self_ms": "ms",
    "sim.partition_cycle.calls": "count",
    "sim.partition_cycle.useful_ratio": "ratio",
    "sim.partition_cycle.self_ms": "ms",
    "sim.partition_receive.self_ms": "ms",
    "sim.icnt.self_ms": "ms",
    "sim.icnt.injected": "count",
    "sim.l1.lookups": "count",
    "sim.l1.lookup_self_ms": "ms",
    "sim.l2.lookups": "count",
    "sim.l2.lookup_self_ms": "ms",
    "sim.stats.record_calls": "count",
    "sim.stats.self_ms": "ms",
    "sim.cycles": "cycles",
    "sim.l1.miss_ratio": "ratio",
    "sim.l2.miss_ratio": "ratio",
    "sim.l1.reservation_fail_fraction": "ratio",
    "sim.issue_stall_cycles": "cycles",
    "sim.dram.reads": "count",
    "profiling.locality_ms": "ms",
    "service.exec_ms_p50.plain": "ms",
    "service.exec_ms_p50.races": "ms",
    "service.exec_ms_p50.emulate_only": "ms",
    "service.exec_ms_p50.advise": "ms",
    "service.client_overhead_ms_p50": "ms",
    "service.result_cache_hits": "count",
    "bench.tracing_overhead_ratio": "ratio",
}

#: simulator component -> (timers, self-time metric)
_COMPONENTS = (
    (("sm_cycle",), "sim.sm_cycle.self_ms"),
    (("sm_receive",), "sim.sm_receive.self_ms"),
    (("partition_cycle",), "sim.partition_cycle.self_ms"),
    (("partition_receive",), "sim.partition_receive.self_ms"),
    (("icnt_deliver", "icnt_inject"), "sim.icnt.self_ms"),
    (("l1_lookup",), "sim.l1.lookup_self_ms"),
    (("l2_lookup",), "sim.l2.lookup_self_ms"),
    (("stats",), "sim.stats.self_ms"),
)


def nearest_rank(values, pct):
    """The nearest-rank percentile: the ``ceil(pct / 100 * n)``-th
    smallest of ``values`` (``pct`` an integer, so the rank is exact)."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = -(-pct * len(ordered) // 100)
    return ordered[max(1, rank) - 1]


def _ratio(num, den):
    return num / den if den else 0.0


def end_to_end(passes, setup_s, peak_rss_mb):
    """The end-to-end metrics of an untraced run, from times at
    reference host speed.

    Every pass runs the same jobs on the same inputs from the same
    state, so a job counts once, at the median of its runs.  Jobs run
    one at a time, so ``jobs_per_s`` is their count over the sum of
    those latencies, where the longest jobs weigh most;
    ``job_ms_geomean`` weighs every job alike.
    """
    runs = {}
    for p in passes:
        for job in p.jobs:
            runs.setdefault(job.key, []).append(job.ms)
    latencies = [statistics.median(ms) for ms in runs.values()]
    return {
        "setup_s": statistics.median(setup_s),
        "jobs_per_s": len(latencies) / (sum(latencies) / 1000),
        "job_ms_geomean": math.exp(statistics.fmean(
            math.log(ms) for ms in latencies)),
        "peak_rss_mb": peak_rss_mb,
    }


def pass_layers(timers, reference, cost, jobs):
    """Per-layer values of one traced in-process pass, plus the
    deterministic counts behind them and two coverage checks.

    ``timers`` is the pass's timer snapshot, ``reference`` the
    ``(stage_times, pass)`` of the fastest untraced reference pass,
    whose stage times are reported, and ``cost`` the per-call wrapper
    cost (see :func:`layers.wrapper_cost`).
    """
    (stages, app_ms, app_self_ms), reference_pass = reference
    counts = {}
    for job in jobs:
        for name, value in job.counts.items():
            counts[name] = counts.get(name, 0) + value
    for name, timer in timers.items():
        counts[name + ".calls"] = timer.calls
        counts[name + ".useful"] = timer.useful

    values = {metric: stages[name] for name, metric in STAGES.items()}
    simulate = values["sim.simulate_ms"]
    store_ms = total_ms(timers, cost, "trace_cache_store")
    lookup_ms = total_ms(timers, cost, "trace_cache_lookup")
    values["experiments.job_self_ms"] = app_self_ms - store_ms - lookup_ms
    for names, metric in _COMPONENTS:
        values[metric] = self_ms(timers, cost, *names)
    components = sum(values[metric] for _names, metric in _COMPONENTS)
    values["sim.loop_self_ms"] = simulate - components

    cycles = counts.get("cycles", 0)
    # the main loop calls deliver_ready once per network per iteration
    iterations = timers["icnt_deliver"].calls // 2
    lookups = timers["trace_cache_lookup"]
    values.update({
        "emulator.warp_insts_per_s": _ratio(
            counts.get("emulated_warp_insts", 0),
            values["emulator.emulate_ms"] / 1000),
        "emulator.fallbacks": counts.get("fallbacks", 0),
        "emulator.trace_cache.store_ms": store_ms,
        "emulator.trace_cache.lookup_ms": lookup_ms,
        "emulator.trace_cache.hit_ratio": _ratio(lookups.useful,
                                                 lookups.calls),
        "sim.host_ns_per_cycle": _ratio(simulate * 1e6, cycles),
        "sim.warp_insts_per_s": _ratio(counts.get("warp_insts", 0),
                                       simulate / 1000),
        "sim.loop_iterations": iterations,
        "sim.cycles_skipped_ratio": _ratio(cycles - iterations, cycles),
        "sim.sm_cycle.calls": timers["sm_cycle"].calls,
        "sim.sm_cycle.useful_ratio": _ratio(timers["sm_cycle"].useful,
                                            timers["sm_cycle"].calls),
        "sim.partition_cycle.calls": timers["partition_cycle"].calls,
        "sim.partition_cycle.useful_ratio": _ratio(
            timers["partition_cycle"].useful,
            timers["partition_cycle"].calls),
        "sim.icnt.injected": timers["icnt_inject"].calls,
        "sim.l1.lookups": timers["l1_lookup"].calls,
        "sim.l2.lookups": timers["l2_lookup"].calls,
        "sim.stats.record_calls": timers["stats"].calls,
        "sim.cycles": cycles,
        "sim.l1.miss_ratio": _ratio(counts.get("l1_misses", 0),
                                    counts.get("l1_accesses", 0)),
        "sim.l2.miss_ratio": _ratio(counts.get("l2_misses", 0),
                                    counts.get("l2_accesses", 0)),
        "sim.l1.reservation_fail_fraction": _ratio(
            counts.get("l1_fail_cycles", 0), counts.get("l1_cycles", 0)),
        "sim.issue_stall_cycles": counts.get("issue_stall_cycles", 0),
        "sim.dram.reads": counts.get("dram_reads", 0),
    })
    coverage = {
        # share of simulate the wrapped components account for
        "sim_components": _ratio(components, simulate),
        # share of the reference pass's job wall time its app spans
        # (stages + self) cover
        "stages": _ratio(app_ms, reference_pass.wall_s * 1000),
    }
    return values, counts, coverage


def service_layers(passes):
    """The ``service.*`` per-layer values, from the job records of the
    jobs that succeeded."""
    records = [job.record for p in passes for job in p.jobs
               if job.error is None]

    def p50(name, variant=None):
        values = [r[name] for r in records
                  if variant is None or r["variant"] == variant]
        return nearest_rank(values, 50) if values else 0.0

    values = {
        "service.client_overhead_ms_p50": p50("client_overhead_ms"),
        "service.result_cache_hits": sum(r["result_cache_hit"]
                                         for r in records),
    }
    for variant, _body in VARIANTS:
        values["service.exec_ms_p50." + variant] = p50("exec_ms", variant)
    return values


def per_layer(passes, references):
    """Every per-layer metric: the median over traced passes of each
    in-process value, the service values, and the tracing overhead
    (median traced pass wall time over the fastest untraced reference
    pass)."""
    values = dict.fromkeys(PER_LAYER, 0.0)
    traced = [p for p in passes if p.traced]
    if traced:
        for name in traced[0].layers:
            values[name] = statistics.median(p.layers[name]
                                             for p in traced)
        values["bench.tracing_overhead_ratio"] = statistics.median(
            p.wall_s for p in traced) / min(p.wall_s for p in references) - 1
    else:
        values.update(service_layers(passes))
    return values
