"""One trace-profile pass: locality, heat map and request histograms.

The paper's Figure 6 request histograms, its Figures 10-12 locality
results and the advisor's heat map are views of one data set: the
distinct (op, line) pairs of an application's global loads.
:func:`profile_trace` folds the application's launches in batches of
consecutive launches (:meth:`TraceProfiler.fold`), each batch no larger
in recorded accesses than the largest launch or
:data:`FOLD_ACCESSES`, so an application of many small launches makes
one pass or a few while a fold's memory stays that of one launch: the
global-load rows of every sealed launch of a fold, picked by the
``kind`` column from the launch's one coalesced table
(:func:`~repro.sim.coalescer.coalesced`, which the timing model's
memory plan has built already when the job simulated), are joined in
launch order, and all three reports are built from that one table:

* the :class:`~repro.profiling.locality.LocalityReport` (cold misses,
  inter-CTA sharing, CTA distances by load class);
* the :class:`~repro.profiling.heatmap.HeatMapReport` (per-line access
  counts, CTA sets and per-PC attribution, reuse intervals);
* the :class:`~repro.sim.coalescer.CoalescingSummary` (memory requests
  per warp load, by class).

Each line's pairs are taken in (launch, op) order; an access's *tick*
is its index in the stream of coalesced accesses over every launch,
which is the clock of the heat map's reuse intervals.  Per-line state
(access count, CTA set, last CTA, last tick, per-PC counts) lives in
one :class:`~repro.profiling.heatmap.LineHeat` and carries from one
fold to the next, so launches folded one by one end in the same state
as one fold of them all.  Python touches each fold's unique lines and
unique (line, PC) pairs; everything per access is vectorized.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from ..core.classifier import ClassificationResult
from ..emulator.columnar import _KIND_LOAD, _PC_SHIFT, SPACE_CODES
from ..resilience.guards import check_memory_budget
from ..sim.coalescer import CoalescingSummary, class_codes, coalesced
from ..sim.config import LINE_BYTES
from ..sim.stats import CLASS_LABELS
from .heatmap import HeatMapReport, LineHeat, PCHeat
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
    """Accumulates :class:`TraceProfile` state over folds of launches."""

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

    def fold(self, launches, classifications=None):
        """Fold the coalesced global loads of ``launches``, in order,
        into the state, in one vectorized pass over all of them.

        Each launch's global-load rows, picked by the ``kind`` column,
        come from its :func:`~repro.sim.coalescer.coalesced` table
        (coalesced here, all launches that hold none in one call), and
        one set of array operations then covers every launch.
        ``classifications`` maps kernel name to anything
        :func:`~repro.sim.coalescer.pc_class_map` accepts.
        """
        check_memory_budget("trace profile")
        launches = list(launches)
        classifications = classifications or {}
        kernels = {}  # kernel name -> index
        codes = {}  # (kernel name, instruction list) -> class codes
        parts = []
        for index, (launch, ops) in enumerate(zip(
                launches, coalesced(launches, self.line_bytes))):
            ops = ops.where(launch.kind == _GLOBAL_LOAD)
            rows = ops.rows
            if not len(rows):
                continue
            name = launch.kernel_name
            kernel = kernels.setdefault(name, len(kernels))
            key = (name, id(launch.instructions))
            if key not in codes:
                codes[key] = class_codes(launch, classifications.get(name))
            pc = launch.pc[rows]
            warp_cta = np.asarray([w.cta_id for w in launch.warps],
                                  dtype=np.int64)
            parts.append((
                index, kernel, pc, ops.lanes, ops.lines,
                codes[key][pc >> _PC_SHIFT],
                warp_cta[np.searchsorted(launch.op_start, rows,
                                         side="right") - 1],
                ops.pair_ops, ops.pair_lines))
        if not parts:
            return
        (launch_of, kernel_of, op_pc, op_lanes, op_lines, op_code, op_cta,
         pair_ops, pair_lines) = _concat(parts)

        # keys pack a count with a class code (0-2) as count * 4 + code
        issued = op_lines > 0
        hist = self.coalescing.histogram
        for key, count in _counts(op_lines[issued] * 4 + op_code[issued]):
            hist[CLASS_LABELS[key & 3]][key >> 2] += count

        # per-PC op counts; zero-line ops count as executed.  A PC's
        # heat is created at its first launch, in PC order
        ukey, first, op_pci = np.unique(
            kernel_of << 32 | op_pc.astype(np.int64), return_index=True,
            return_inverse=True)
        names = list(kernels)
        heats = [None] * len(ukey)
        for i in np.lexsort((ukey, launch_of[first])).tolist():
            key = int(ukey[i])
            heats[i] = self._pc_heat(names[key >> 32], key & 0xFFFFFFFF)
        most = np.zeros(len(ukey), dtype=np.int64)
        np.maximum.at(most, op_pci, op_lines)
        for heat, n_ops, lanes, touches, peak in zip(
                heats, np.bincount(op_pci).tolist(),
                np.bincount(op_pci, op_lanes).astype(np.int64).tolist(),
                np.bincount(op_pci, op_lines).astype(np.int64).tolist(),
                most.tolist()):
            heat.warp_ops += n_ops
            heat.lane_accesses += lanes
            heat.line_touches += touches
            heat.max_lines_per_op = max(heat.max_lines_per_op, peak)

        n = len(pair_ops)
        if not n:
            return
        # each line's pairs in op order, ticked in (op, line) order
        order = np.argsort(pair_lines, kind="stable")
        line = pair_lines[order]
        tick = order + self.tick
        pair_op = pair_ops[order]
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
        cta_list = cta.tolist()
        objs, entry_cta, entry_tick = [], [], []
        for line_id, lo, hi, last_tick in zip(
                line[starts].tolist(), starts.tolist(), ends.tolist(),
                tick[ends - 1].tolist()):
            info = lines.get(line_id)
            if info is None:
                info = lines[line_id] = LineHeat()
            entry_cta.append(info.last_cta)
            entry_tick.append(info.last_idx)
            info.accesses += hi - lo
            info.last_cta = cta_list[hi - 1]
            info.last_idx = last_tick
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
            heat = heats[key % n_pcs]
            pc_key = (heat.kernel, heat.pc)
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


def _concat(parts):
    """The per-launch arrays of :meth:`TraceProfiler.fold` joined in
    launch order: per op its launch and kernel index, pc, lane accesses,
    lines, class code and CTA, then the (op, line) pairs, each pair's op
    offset by the ops of the launches before.  A single launch's arrays
    are used as they are."""
    launch, kernel, *columns, pair_ops, pair_lines = zip(*parts)
    sizes = [len(pc) for pc in columns[0]]
    if len(parts) > 1:
        pair_ops = [ops + offset for ops, offset in
                    zip(pair_ops, np.cumsum([0] + sizes[:-1]).tolist())]
    return (np.repeat(launch, sizes), np.repeat(kernel, sizes),
            *(arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
              for arrays in (*columns, pair_ops, pair_lines)))


#: The fewest recorded accesses :func:`profile_trace` lets one fold
#: hold.  A fold's temporaries take 55-110 bytes per access (coalesced
#: dense loads to scattered graph loads), so a batch is kept no larger
#: than the application's largest launch, whose own fold the profile
#: cannot avoid, or than this floor, which lets an application of many
#: small launches fold in one pass or a few.
FOLD_ACCESSES = 1 << 12


def profile_trace(app_trace, classifications=None, line_bytes=LINE_BYTES):
    """The :class:`TraceProfile` of an application trace: one
    :meth:`TraceProfiler.fold` per batch of consecutive launches, each
    batch recording no more accesses than the largest launch or
    :data:`FOLD_ACCESSES`, whichever is more.
    ``classifications`` maps kernel name to its
    :class:`~repro.core.classifier.ClassificationResult` (or a plain
    ``{pc: class}`` dict); loads without one land in ``"other"``."""
    profiler = TraceProfiler(line_bytes)
    launches = list(app_trace)
    sizes = [len(launch.seal().addrs) for launch in launches]
    limit = max(sizes + [FOLD_ACCESSES])
    batch, accesses = [], 0
    for launch, size in zip(launches, sizes):
        if accesses + size > limit:
            profiler.fold(batch, classifications)
            batch, accesses = [], 0
        batch.append(launch)
        accesses += size
    profiler.fold(batch, classifications)
    return profiler.report(classifications)
