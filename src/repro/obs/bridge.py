"""Publishing bridges: pipeline objects → metrics-registry series.

The emulator trace, the simulator's :class:`~repro.sim.stats.SimStats`
and the locality report all keep their own cheap in-object counters
(the hot paths are untouched); this module converts each of them into
registry series at application granularity.  The published values are
*exactly* the inputs of the paper's figures — ``figures.fig1_data`` can
be recomputed from ``app.loads.dynamic``, ``fig2_data`` from
``sim.class.requests`` / ``sim.class.warp_insts``, ``fig3_data`` from
``sim.l1.cycles`` and ``fig8_data`` from the ``sim.class.l*`` counters —
and ``tests/obs/test_bridge.py`` asserts that correspondence value for
value.

Everything published here is a deterministic function of the executed
work, never of wall-clock time, so two runs of the same workload (even
on different emulator engines) produce identical series.
"""

from __future__ import annotations


from ..sim.stats import CLASS_LABELS
from .metrics import get_registry

#: per-class ClassStats fields → counter names (the Figure 2/5/8 inputs).
_CLASS_FIELDS = {
    "warp_insts": "sim.class.warp_insts",
    "requests": "sim.class.requests",
    "active_threads": "sim.class.active_threads",
    "l1_hit": "sim.class.l1_hit",
    "l1_hit_reserved": "sim.class.l1_hit_reserved",
    "l1_miss": "sim.class.l1_miss",
    "l2_hit": "sim.class.l2_hit",
    "l2_miss": "sim.class.l2_miss",
    "completed": "sim.class.completed",
    "turnaround_sum": "sim.class.turnaround_cycles",
    "wait_prev_sum": "sim.class.wait_prev_cycles",
    "wait_cur_sum": "sim.class.wait_cur_cycles",
}

#: scalar SimStats fields → counter names.
_SIM_FIELDS = {
    "issued_warp_insts": "sim.issued_warp_insts",
    "shared_load_insts": "sim.shared_load_insts",
    "global_load_insts": "sim.global_load_insts",
    "global_store_insts": "sim.global_store_insts",
    "active_sm_cycles": "sim.active_sm_cycles",
    "icnt_injected": "sim.icnt.injected",
    "icnt_queue_delay": "sim.icnt.queue_delay_cycles",
    "l2_stall_cycles": "sim.l2.stall_cycles",
    "dram_reads": "sim.dram.reads",
    "dram_writes": "sim.dram.writes",
    "prefetch_issued": "sim.prefetch.issued",
    "prefetch_dropped": "sim.prefetch.dropped",
    "shared_bank_conflict_cycles": "sim.shared.bank_conflict_cycles",
}


def publish_trace(name, run, coalescing, registry=None):
    """Emulator-trace counters for one application (no timing model).

    ``app.loads.dynamic{app,load_category}`` carries the dynamic D/N
    global-load split — Figure 1's exact input; the ``app.trace.*``
    family carries the Table I instruction counts; ``app.coalescing.*``
    carries ``coalescing``, the trace-level
    :class:`~repro.sim.coalescer.CoalescingSummary` (Figure 2's
    trace-side counterpart and the golden-stats headline numbers).
    """
    reg = registry if registry is not None else get_registry()
    det, nondet = run.dynamic_class_split()
    dynamic = reg.counter(
        "app.loads.dynamic",
        "dynamic global-load warp instructions per load class (Figure 1)")
    dynamic.inc(det, app=name, load_category="D")
    dynamic.inc(nondet, app=name, load_category="N")

    trace = run.trace
    reg.counter("app.trace.launches",
                "kernel launches per application").inc(
        len(trace), app=name)
    reg.counter("app.trace.warp_insts",
                "executed warp instructions per application").inc(
        trace.total_warp_instructions(), app=name)
    reg.counter("app.trace.global_loads",
                "executed global-load warp instructions").inc(
        trace.global_load_warp_count(), app=name)
    reg.counter("app.trace.shared_loads",
                "executed shared-load warp instructions").inc(
        trace.shared_load_warp_count(), app=name)

    warp_loads = reg.counter(
        "app.coalescing.warp_loads",
        "global-load warp instructions entering the coalescer, per class")
    requests = reg.counter(
        "app.coalescing.requests",
        "128B memory requests after coalescing, per class (Figure 2)")
    uncoalesced = reg.counter(
        "app.coalescing.uncoalesced_loads",
        "warp loads producing more than one memory request, per class")
    for label in CLASS_LABELS:
        warp_loads.inc(coalescing.warp_loads[label], app=name,
                       load_category=label)
        requests.inc(coalescing.requests[label], app=name,
                     load_category=label)
        uncoalesced.inc(coalescing.uncoalesced[label], app=name,
                        load_category=label)
    return reg


def publish_sim(name, stats, registry=None):
    """Timing-simulation counters for one application.

    Everything the figure layer reads from :class:`SimStats` — the
    per-class counters (Figures 2, 5, 8), the L1 cycle outcomes
    (Figure 3), unit busy cycles (Figure 4) and the issue-stall,
    interconnect, DRAM and prefetch telemetry — as labelled series.
    """
    reg = registry if registry is not None else get_registry()
    for field, metric_name in _CLASS_FIELDS.items():
        counter = reg.counter(metric_name)
        for label in CLASS_LABELS:
            counter.inc(getattr(stats.classes[label], field),
                        app=name, load_category=label)
    l1_cycles = reg.counter(
        "sim.l1.cycles",
        "L1 cache cycles by outcome and load class (Figure 3)")
    for label in CLASS_LABELS:
        for outcome, cycles in stats.l1_cycles_by_class[label].items():
            l1_cycles.inc(cycles, app=name, load_category=label,
                          outcome=outcome.value)
    unit_busy = reg.counter("sim.unit_busy_cycles",
                            "functional-unit busy cycles (Figure 4)")
    for unit, cycles in stats.unit_busy.items():
        unit_busy.inc(cycles, app=name, unit=unit)
    issue_stall = reg.counter("sim.issue_stall_cycles",
                              "SM-active cycles with no issue, by reason")
    for reason, cycles in stats.issue_stall.items():
        issue_stall.inc(cycles, app=name, reason=reason)
    for field, metric_name in _SIM_FIELDS.items():
        reg.counter(metric_name).inc(getattr(stats, field), app=name)
    reg.gauge("sim.cycles", "simulated cycles per application").set(
        stats.cycles, app=name)
    return reg


def publish_locality(name, locality, registry=None):
    """Locality-report gauges — Figures 10 and 11's exact inputs."""
    reg = registry if registry is not None else get_registry()
    reg.gauge("locality.cold_miss_ratio",
              "fraction of global-load accesses that are cold misses "
              "(Figure 10)").set(locality.cold_miss_ratio, app=name)
    reg.gauge("locality.accesses_per_block",
              "mean accesses per 128B block (Figure 10)").set(
        locality.mean_accesses_per_block, app=name)
    reg.gauge("locality.shared_block_ratio",
              "fraction of blocks touched by more than one CTA "
              "(Figure 11)").set(locality.shared_block_ratio, app=name)
    reg.gauge("locality.shared_access_ratio",
              "fraction of accesses to multi-CTA blocks (Figure 11)").set(
        locality.shared_access_ratio, app=name)
    reg.gauge("locality.mean_ctas_per_shared_block",
              "mean CTA count on shared blocks (Figure 11)").set(
        locality.mean_ctas_per_shared_block, app=name)
    return reg


def publish_result(result, registry=None):
    """Publish one :class:`~repro.experiments.runner.AppResult` whole:
    trace counters, simulation counters (when simulated) and locality
    gauges."""
    reg = registry if registry is not None else get_registry()
    publish_trace(result.name, result.run, result.coalescing, reg)
    if result.stats is not None:
        publish_sim(result.name, result.stats, reg)
    if result.locality is not None:
        publish_locality(result.name, result.locality, reg)
    return reg
