"""The one-op-at-a-time reference for the trace-profile pass.

:func:`analyze_record_warp` folds one warp's global loads into a
:class:`~repro.profiling.trace_profile.TraceProfiler`'s state, walking
the warp's record view one op and one line at a time through
:func:`~repro.sim.coalescer.coalesce_addresses`.  Walked over a launch's
warps in order, it must leave the state
:meth:`TraceProfiler.fold` leaves for that launch.
"""

from repro.profiling.heatmap import LineHeat, reuse_bucket
from repro.ptx.isa import Space
from repro.sim.coalescer import coalesce_addresses


def analyze_record_warp(profiler, kernel, warp, classes):
    """Fold ``warp``'s global loads into ``profiler``.  ``classes`` maps
    pc to ``"D"``/``"N"`` (:func:`~repro.sim.coalescer.pc_class_map`)."""
    cta = warp.cta_id
    locality = profiler.locality
    for op in warp.ops:
        inst = op.inst
        if (op.addresses is None or inst.space is not Space.GLOBAL
                or inst.is_store or inst.is_atomic):
            continue
        touched = [block // profiler.line_bytes for block in
                   coalesce_addresses(op.addresses, profiler.line_bytes,
                                      inst.access_bytes)]
        label = classes.get(op.pc)
        if touched:
            profiler.coalescing.record(label, len(touched))
        heat = profiler._pc_heat(kernel, op.pc)
        heat.warp_ops += 1
        heat.lane_accesses += len(op.addresses)
        heat.line_touches += len(touched)
        heat.max_lines_per_op = max(heat.max_lines_per_op, len(touched))
        for line_id in touched:
            info = profiler.lines.get(line_id)
            if info is None:
                info = profiler.lines[line_id] = LineHeat()
                heat.cold_misses += 1
                locality.cold_misses += 1
            else:
                bucket = reuse_bucket(profiler.tick - info.last_idx)
                profiler.reuse[bucket] += 1
                heat.reuse_hist[bucket] += 1
                if info.last_cta != cta:
                    distance = abs(cta - info.last_cta)
                    locality.distance_hist[distance] += 1
                    if label in ("D", "N"):
                        locality.distance_hist_by_class[label][
                            distance] += 1
            info.accesses += 1
            info.last_idx = profiler.tick
            info.last_cta = cta
            info.ctas.add(cta)
            info.pcs[heat.kernel, heat.pc] = \
                info.pcs.get((heat.kernel, heat.pc), 0) + 1
            locality.total_accesses += 1
            profiler.tick += 1
