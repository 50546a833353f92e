"""One trace-profile pass: locality, heat map and request histograms.

The paper's Figure 6 request histograms, its Figures 10-12 locality
results and the advisor's heat map are views of one data set: the
distinct (op, line) pairs of each launch's global loads.  For every
launch, :class:`TraceProfiler` makes one
:func:`~repro.sim.coalescer.coalesce_table` call over the sealed
launch's columns, its global-load rows picked by the ``kind`` column,
and builds all three reports from it:

* the :class:`~repro.profiling.locality.LocalityReport` (cold misses,
  inter-CTA sharing, CTA distances by load class);
* the :class:`~repro.profiling.heatmap.HeatMapReport` (per-line access
  counts, CTA sets and per-PC attribution, reuse intervals);
* the :class:`~repro.sim.coalescer.CoalescingSummary` (memory requests
  per warp load, by class).

Each line's pairs are taken in op order; an access's *tick* is its
index in the stream of coalesced accesses over every launch, which is
the clock of the heat map's reuse intervals.  Per-line state (access
count, CTA set, last CTA, last tick, per-PC counts) lives in one
:class:`~repro.profiling.heatmap.LineHeat` and carries across launches.
Python touches each launch's unique lines and unique (line, PC) pairs;
everything per access is vectorized.
:meth:`TraceProfiler._analyze_record_warp` is the one-op-at-a-time
reference over the record view that the pass is tested against.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from ..core.classifier import ClassificationResult
from ..emulator.columnar import _KIND_LOAD, _PC_SHIFT, SPACE_CODES
from ..ptx.isa import Space
from ..resilience.guards import check_memory_budget
from ..sim.coalescer import (
    CoalescingSummary, class_codes, coalesce_addresses, coalesce_table)
from ..sim.config import LINE_BYTES
from ..sim.stats import CLASS_LABELS
from .heatmap import HeatMapReport, LineHeat, PCHeat, reuse_bucket
from .locality import LocalityReport

#: the ``kind`` code of a global load
_GLOBAL_LOAD = SPACE_CODES["global"] << 2 | _KIND_LOAD


@dataclass
class TraceProfile:
    """The three trace-level reports of one application run."""

    locality: LocalityReport
    heatmap: HeatMapReport
    coalescing: CoalescingSummary


class TraceProfiler:
    """Accumulates :class:`TraceProfile` state launch by launch."""

    def __init__(self, line_bytes=LINE_BYTES):
        self.line_bytes = line_bytes
        self.lines = {}  # line id -> LineHeat, carried across launches
        self.pcs = {}  # (kernel, pc) -> PCHeat
        self.reuse = Counter()
        self.tick = 0  # global coalesced-access clock
        self.locality = LocalityReport()
        self.coalescing = CoalescingSummary()

    def _pc_heat(self, kernel, pc):
        key = (kernel, pc)
        heat = self.pcs.get(key)
        if heat is None:
            heat = self.pcs[key] = PCHeat(kernel=kernel, pc=pc)
        return heat

    def analyze_launch(self, launch, classification=None):
        """Fold one launch's coalesced global loads into the state.

        ``classification`` is anything
        :func:`~repro.sim.coalescer.pc_class_map` accepts; it buckets
        the request histograms and CTA distances by load class.
        """
        check_memory_budget("trace profile")
        keep = launch.seal().kind == _GLOBAL_LOAD
        if not keep.any():
            return
        ops = coalesce_table(launch, keep, self.line_bytes)
        op_pc = launch.pc[ops.rows]
        op_code = class_codes(launch, classification)[op_pc >> _PC_SHIFT]
        cta_of_row = np.repeat(
            np.asarray([w.cta_id for w in launch.warps], dtype=np.int64),
            np.diff(launch.op_start))
        op_cta = cta_of_row[ops.rows]

        # keys pack a count with a class code (0-2) as count * 4 + code
        issued = ops.lines > 0
        hist = self.coalescing.histogram
        for key, count in _counts(ops.lines[issued] * 4 + op_code[issued]):
            hist[CLASS_LABELS[key & 3]][key >> 2] += count

        # per-PC op counts; zero-line ops count as executed
        kernel = launch.kernel_name
        upc, op_pci = np.unique(op_pc, return_inverse=True)
        most = np.zeros(len(upc), dtype=np.int64)
        np.maximum.at(most, op_pci, ops.lines)
        heats = [self._pc_heat(kernel, pc) for pc in upc.tolist()]
        for heat, n_ops, lanes, touches, peak in zip(
                heats, np.bincount(op_pci).tolist(),
                np.bincount(op_pci, ops.lanes).astype(np.int64).tolist(),
                np.bincount(op_pci, ops.lines).astype(np.int64).tolist(),
                most.tolist()):
            heat.warp_ops += n_ops
            heat.lane_accesses += lanes
            heat.line_touches += touches
            heat.max_lines_per_op = max(heat.max_lines_per_op, peak)

        n = len(ops.pair_ops)
        if not n:
            return
        # each line's pairs in op order, ticked in (op, line) order
        order = np.argsort(ops.pair_lines, kind="stable")
        line = ops.pair_lines[order]
        tick = order + self.tick
        pair_op = ops.pair_ops[order]
        cta = op_cta[pair_op]
        pci = op_pci[pair_op]
        first = np.empty(n, dtype=bool)
        first[0] = True
        np.not_equal(line[1:], line[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        ends = np.append(starts[1:], n)

        # the carried per-line state: entry values, then exit values
        prev_cta = np.empty(n, dtype=np.int64)
        prev_cta[1:] = cta[:-1]
        prev_tick = np.empty(n, dtype=np.int64)
        prev_tick[1:] = tick[:-1]
        lines = self.lines
        cta_list, tick_list = cta.tolist(), tick.tolist()
        objs, entry_cta, entry_tick = [], [], []
        for line_id, lo, hi in zip(line[starts].tolist(), starts.tolist(),
                                   ends.tolist()):
            info = lines.get(line_id)
            if info is None:
                info = lines[line_id] = LineHeat()
            entry_cta.append(info.last_cta)
            entry_tick.append(info.last_idx)
            info.accesses += hi - lo
            info.last_cta = cta_list[hi - 1]
            info.last_idx = tick_list[hi - 1]
            info.ctas.update(cta_list[lo:hi])
            objs.append(info)
        prev_cta[starts] = entry_cta
        prev_tick[starts] = entry_tick
        self.tick += n

        n_pcs = len(heats)
        cold = prev_tick < 0  # only a new line's first pair
        reused = ~cold
        for heat, n_cold in zip(heats, np.bincount(
                pci[cold], minlength=n_pcs).tolist()):
            heat.cold_misses += n_cold
        bucket = np.frexp((tick - prev_tick)[reused])[1]  # = bit_length
        for key, count in _counts(pci[reused] * 64 + bucket):
            self.reuse[key & 63] += count
            heats[key >> 6].reuse_hist[key & 63] += count

        group = np.cumsum(first) - 1
        for key, count in _counts(group * n_pcs + pci):
            pcs = objs[key // n_pcs].pcs
            pc_key = (kernel, heats[key % n_pcs].pc)
            pcs[pc_key] = pcs.get(pc_key, 0) + count

        locality = self.locality
        locality.total_accesses += n
        locality.cold_misses += int(np.count_nonzero(cold))
        changed = (prev_cta >= 0) & (prev_cta != cta)
        distance = np.abs(cta - prev_cta)[changed]
        by_class = locality.distance_hist_by_class
        for key, count in _counts(distance * 4 + op_code[pair_op][changed]):
            locality.distance_hist[key >> 2] += count
            if key & 3 < 2:
                by_class[CLASS_LABELS[key & 3]][key >> 2] += count

    def _analyze_record_warp(self, kernel, warp, classes):
        """Reference implementation of :meth:`analyze_launch` for one
        warp, over its record view, one op and one line at a time.
        ``classes`` maps pc to ``"D"``/``"N"``
        (:func:`~repro.sim.coalescer.pc_class_map`)."""
        cta = warp.cta_id
        locality = self.locality
        for op in warp.ops:
            inst = op.inst
            if (op.addresses is None or inst.space is not Space.GLOBAL
                    or inst.is_store or inst.is_atomic):
                continue
            touched = [block // self.line_bytes for block in
                       coalesce_addresses(op.addresses, self.line_bytes,
                                          inst.access_bytes)]
            label = classes.get(op.pc)
            if touched:
                self.coalescing.record(label, len(touched))
            heat = self._pc_heat(kernel, op.pc)
            heat.warp_ops += 1
            heat.lane_accesses += len(op.addresses)
            heat.line_touches += len(touched)
            heat.max_lines_per_op = max(heat.max_lines_per_op, len(touched))
            for line_id in touched:
                info = self.lines.get(line_id)
                if info is None:
                    info = self.lines[line_id] = LineHeat()
                    heat.cold_misses += 1
                    locality.cold_misses += 1
                else:
                    bucket = reuse_bucket(self.tick - info.last_idx)
                    self.reuse[bucket] += 1
                    heat.reuse_hist[bucket] += 1
                    if info.last_cta != cta:
                        distance = abs(cta - info.last_cta)
                        locality.distance_hist[distance] += 1
                        if label in ("D", "N"):
                            locality.distance_hist_by_class[label][
                                distance] += 1
                info.accesses += 1
                info.last_idx = self.tick
                info.last_cta = cta
                info.ctas.add(cta)
                info.pcs[heat.kernel, heat.pc] = \
                    info.pcs.get((heat.kernel, heat.pc), 0) + 1
                locality.total_accesses += 1
                self.tick += 1

    def report(self, classifications=None):
        """Finalize the per-line aggregates into a
        :class:`TraceProfile`; ``classifications`` (kernel name ->
        :class:`~repro.core.classifier.ClassificationResult`) annotates
        each heat-map PC with its D/N class and source line."""
        locality = self.locality
        locality.num_blocks = len(self.lines)
        locality.shared_blocks = 0
        locality.shared_accesses = 0
        locality.total_cta_count_on_shared = 0
        for heat in self.pcs.values():
            heat.distinct_lines = 0
            heat.shared_touches = 0
        for info in self.lines.values():
            shared = len(info.ctas) >= 2
            if shared:
                locality.shared_blocks += 1
                locality.shared_accesses += info.accesses
                locality.total_cta_count_on_shared += len(info.ctas)
            for key, count in info.pcs.items():
                heat = self.pcs[key]
                heat.distinct_lines += 1
                if shared:
                    heat.shared_touches += count
        for heat in self.pcs.values():
            result = (classifications or {}).get(heat.kernel)
            found = (result.get(heat.pc)
                     if isinstance(result, ClassificationResult) else None)
            if found is not None:
                heat.load_class = str(found.load_class)
                heat.line = found.instruction.line
                heat.text = str(found.instruction)
        heatmap = HeatMapReport(line_bytes=self.line_bytes,
                                total_touches=self.tick, lines=self.lines,
                                pcs=self.pcs, reuse_hist=self.reuse)
        return TraceProfile(locality, heatmap, self.coalescing)


def _counts(values):
    """``(value, occurrences)`` pairs of an integer array, ascending."""
    values, counts = np.unique(values, return_counts=True)
    return zip(values.tolist(), counts.tolist())


def profile_trace(app_trace, classifications=None, line_bytes=LINE_BYTES):
    """The :class:`TraceProfile` of an application trace, one pass per
    launch.  ``classifications`` maps kernel name to its
    :class:`~repro.core.classifier.ClassificationResult` (or a plain
    ``{pc: class}`` dict); loads without one land in ``"other"``."""
    profiler = TraceProfiler(line_bytes)
    for launch in app_trace:
        profiler.analyze_launch(
            launch, (classifications or {}).get(launch.kernel_name))
    return profiler.report(classifications)
