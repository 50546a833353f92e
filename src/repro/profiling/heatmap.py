"""Per-line memory heat maps, streamed from columnar traces.

CUTHERMO-style profiling (PAPERS.md): memory is divided into
:data:`~repro.sim.config.LINE_BYTES` lines and every coalesced global
access is attributed to the line it touches, the CTA that issued it and
the static load PC it came from.  The aggregate answers the questions
the optimization advisor (:mod:`repro.advise`) asks:

* **access counts per line** — where the heat is (the rendered map);
* **touching-CTA sets** — which lines are shared across CTAs, and by
  how many (the paper's hidden inter-CTA locality, Figure 11);
* **per-PC attribution** — which static loads created each line's
  traffic, so a diagnosis can point at a PTX source line;
* **reuse-interval buckets** — log2 histogram of the reuse interval of
  each re-touch of a line: the difference between the global indices,
  in the stream of coalesced accesses, of that touch and the line's
  previous one (touches at 0 and 2 give 2).  It is the
  architecture-independent temporal-locality feature of Chilukuri et
  al. (PAPERS.md).  Long intervals on a hot line mean its reuse
  outlives any realistic cache — the cache-thrashing signature.

The coalesced accesses are the ones every trace profile counts:
:func:`~repro.sim.coalescer.coalesce_table` turns each chunk of a
warp's columns (:meth:`~repro.emulator.columnar.ColumnarWarpTrace.iter_chunks`,
never the record view) into its distinct (op, line) pairs, taking each
access's width from its instruction as the timing model does.  Python
touches the aggregate state once per pair, not per lane access, and
:func:`~repro.resilience.guards.check_memory_budget` runs on every
chunk.  :meth:`HeatMapAggregator._analyze_record_warp` is the
one-op-at-a-time reference the streaming path is tested against.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..ptx.isa import Space
from ..resilience.guards import check_memory_budget
from ..sim.config import LINE_BYTES

#: intensity ramp for the ASCII rendering (cold -> hot).
_RAMP = " .:-=+*#%@"

def reuse_bucket(interval):
    """The log2 bucket of a reuse interval: bucket ``b`` covers
    ``2**(b-1) <= interval < 2**b``.  ``interval`` is the difference
    between the global coalesced-access indices of two consecutive
    touches of one line (touches at 0 and 2 give 2)."""
    return int(interval).bit_length()


class LineHeat:
    """Aggregated state of one memory line."""

    __slots__ = ("accesses", "ctas", "last_idx", "pcs")

    def __init__(self):
        self.accesses = 0
        self.ctas = set()
        self.last_idx = -1
        #: {(kernel, pc): coalesced accesses this PC made to the line}
        self.pcs: Dict[Tuple[str, int], int] = {}

    def top_pc(self):
        """The (kernel, pc) contributing most accesses (deterministic
        tie-break on the key)."""
        if not self.pcs:
            return None
        return min(self.pcs, key=lambda k: (-self.pcs[k], k))


@dataclass
class PCHeat:
    """Heat-map aggregates attributed to one static load PC."""

    kernel: str
    pc: int
    #: D/N class when classifications were supplied, else ``None``.
    load_class: Optional[str] = None
    #: PTX source line of the instruction (0 when unknown).
    line: int = 0
    #: canonical text of the instruction (empty when unknown).
    text: str = ""
    warp_ops: int = 0
    lane_accesses: int = 0
    #: coalesced accesses = sum of distinct lines touched per op.
    line_touches: int = 0
    cold_misses: int = 0
    max_lines_per_op: int = 0
    #: {reuse bucket: touches} for re-touches attributed to this PC.
    reuse_hist: Counter = field(default_factory=Counter)
    #: filled by :meth:`HeatMapReport` finalization.
    distinct_lines: int = 0
    shared_touches: int = 0

    def requests_per_warp(self):
        return self.line_touches / self.warp_ops if self.warp_ops else 0.0

    def mean_active_lanes(self):
        return self.lane_accesses / self.warp_ops if self.warp_ops else 0.0

    def cold_miss_ratio(self):
        if not self.line_touches:
            return 0.0
        return self.cold_misses / self.line_touches

    def shared_fraction(self):
        if not self.line_touches:
            return 0.0
        return self.shared_touches / self.line_touches

    def reuse_fraction_beyond(self, min_bucket):
        """Fraction of this PC's re-touches whose reuse interval falls
        in bucket ``min_bucket`` or beyond."""
        total = sum(self.reuse_hist.values())
        if not total:
            return 0.0
        far = sum(c for b, c in self.reuse_hist.items() if b >= min_bucket)
        return far / total

    def to_json(self):
        return {
            "kernel": self.kernel,
            "pc": self.pc,
            "class": self.load_class,
            "line": self.line,
            "text": self.text,
            "warp_ops": self.warp_ops,
            "lane_accesses": self.lane_accesses,
            "line_touches": self.line_touches,
            "requests_per_warp": self.requests_per_warp(),
            "cold_miss_ratio": self.cold_miss_ratio(),
            "shared_fraction": self.shared_fraction(),
            "max_lines_per_op": self.max_lines_per_op,
            "distinct_lines": self.distinct_lines,
            "reuse_hist": {str(b): c
                           for b, c in sorted(self.reuse_hist.items())},
        }


@dataclass
class HeatMapReport:
    """The finalized heat map of one application run."""

    line_bytes: int = LINE_BYTES
    total_touches: int = 0
    lines: Dict[int, LineHeat] = field(default_factory=dict)
    pcs: Dict[Tuple[str, int], PCHeat] = field(default_factory=dict)
    #: combined {reuse bucket: touches} over all lines.
    reuse_hist: Counter = field(default_factory=Counter)

    @property
    def num_lines(self):
        return len(self.lines)

    @property
    def shared_lines(self):
        return sum(1 for h in self.lines.values() if len(h.ctas) >= 2)

    def hottest(self, n=16):
        """The ``n`` most-accessed lines:
        ``(line_id, accesses, num_ctas, top_pc)``, hottest first."""
        ranked = sorted(self.lines.items(),
                        key=lambda kv: (-kv[1].accesses, kv[0]))
        return [(line_id, heat.accesses, len(heat.ctas), heat.top_pc())
                for line_id, heat in ranked[:n]]

    def render(self, width=64, height=8):
        """ASCII heat map: the touched address range folded into
        ``width`` bins x ``height`` rows, intensity by access count."""
        if not self.lines:
            return "(no global-memory accesses recorded)"
        ids = np.fromiter(self.lines.keys(), dtype=np.int64,
                          count=len(self.lines))
        counts = np.fromiter((h.accesses for h in self.lines.values()),
                             dtype=np.int64, count=len(self.lines))
        lo, hi = int(ids.min()), int(ids.max()) + 1
        cells = width * height
        span = max(1, -(-(hi - lo) // cells))  # lines per cell, ceil
        grid = np.zeros(cells, dtype=np.int64)
        np.add.at(grid, (ids - lo) // span, counts)
        peak = int(grid.max())
        out = ["heat map: %d lines (%d B each), %d per cell, peak %d "
               "accesses/cell" % (hi - lo, self.line_bytes, span, peak)]
        ramp = _RAMP
        for r in range(height):
            row = grid[r * width:(r + 1) * width]
            chars = ((row * (len(ramp) - 1) + peak - 1) // peak
                     if peak else row)
            out.append("|%s|" % "".join(ramp[min(int(c), len(ramp) - 1)]
                                        for c in chars))
        return "\n".join(out)

    def to_json(self, top=32):
        pcs = sorted(self.pcs.values(),
                     key=lambda p: (-p.line_touches, p.kernel, p.pc))
        return {
            "line_bytes": self.line_bytes,
            "total_touches": self.total_touches,
            "num_lines": self.num_lines,
            "shared_lines": self.shared_lines,
            "reuse_hist": {str(b): c
                           for b, c in sorted(self.reuse_hist.items())},
            "hottest": [
                {"line": line_id, "address": line_id * self.line_bytes,
                 "accesses": accesses, "ctas": ctas,
                 "top_pc": (None if top_pc is None
                            else {"kernel": top_pc[0], "pc": top_pc[1]})}
                for line_id, accesses, ctas, top_pc in self.hottest(top)],
            "pcs": [p.to_json() for p in pcs],
        }


class HeatMapAggregator:
    """Streams application traces into a :class:`HeatMapReport`.

    ``line_bytes`` defaults to the repo-wide
    :data:`~repro.sim.config.LINE_BYTES`; ``include_stores`` widens the
    aggregation beyond the paper's load focus.
    """

    def __init__(self, line_bytes=LINE_BYTES, include_stores=False):
        self.line_bytes = line_bytes
        self.include_stores = include_stores
        self._lines: Dict[int, LineHeat] = {}
        self._pcs: Dict[Tuple[str, int], PCHeat] = {}
        self._reuse = Counter()
        self._tick = 0  # global coalesced-access clock

    # -- feeding ----------------------------------------------------------

    def analyze_application(self, app_trace, classifications=None):
        """Process every launch; ``classifications`` (kernel name ->
        :class:`~repro.core.classifier.ClassificationResult`) annotates
        each PC with its D/N class and source line."""
        from ..obs import tracing

        with tracing.span("profile.heatmap", app=app_trace.name) as sp:
            for launch in app_trace:
                self.analyze_launch(launch)
            report = self.report(classifications)
            sp.set(lines=report.num_lines, touches=report.total_touches)
        return report

    def analyze_launch(self, launch):
        kernel = launch.kernel_name
        for warp in launch.warps:
            self._analyze_columnar_warp(kernel, warp, launch.access_bytes)

    def _analyze_columnar_warp(self, kernel, warp, access_bytes):
        from ..sim.coalescer import coalesce_table

        cta = warp.cta_id
        for chunk in warp.iter_chunks():
            check_memory_budget("heat-map aggregation")
            ops = coalesce_table(chunk, access_bytes,
                                 stores=self.include_stores,
                                 line_size=self.line_bytes)
            self._ingest(kernel, cta,
                         chunk[0][ops.rows].tolist(),
                         ops.lanes.tolist(),
                         ops.lines.tolist(),
                         ops.pair_ops.tolist(), ops.pair_lines.tolist())

    def _analyze_record_warp(self, kernel, warp):
        """Reference implementation of :meth:`_analyze_columnar_warp`
        over the warp's record view, one op at a time."""
        from ..sim.coalescer import coalesce_addresses

        cta = warp.cta_id
        for op in warp.ops:
            if op.addresses is None:
                continue
            inst = op.inst
            if inst.space is not Space.GLOBAL:
                continue
            if inst.is_store and not self.include_stores:
                continue
            if not inst.is_load and not inst.is_store:
                continue
            touched = [block // self.line_bytes for block in
                       coalesce_addresses(op.addresses, self.line_bytes,
                                          inst.access_bytes)]
            self._ingest(kernel, cta, [op.pc], [len(op.addresses)],
                         [len(touched)], [0] * len(touched), touched)

    def _ingest(self, kernel, cta, op_pcs, op_lane_counts, per_op,
                pair_rows, pair_lines):
        """Update Python-level state from one batch of ops.

        ``op_pcs``/``op_lane_counts``/``per_op`` are per-op (PC, lane
        accesses, distinct lines); ``pair_rows``/``pair_lines`` list the
        distinct (op row, line) pairs, grouped by op row in order.
        """
        pcs = self._pcs
        lines = self._lines
        reuse = self._reuse
        pc_heats = []
        for op_pc, lane_count, n_lines in zip(op_pcs, op_lane_counts,
                                              per_op):
            key = (kernel, op_pc)
            heat = pcs.get(key)
            if heat is None:
                heat = pcs[key] = PCHeat(kernel=kernel, pc=op_pc)
            heat.warp_ops += 1
            heat.lane_accesses += lane_count
            heat.line_touches += n_lines
            if n_lines > heat.max_lines_per_op:
                heat.max_lines_per_op = n_lines
            pc_heats.append(heat)
        tick = self._tick
        for row, line_id in zip(pair_rows, pair_lines):
            heat = pc_heats[row]
            key = (heat.kernel, heat.pc)
            info = lines.get(line_id)
            if info is None:
                info = lines[line_id] = LineHeat()
                heat.cold_misses += 1
            else:
                bucket = reuse_bucket(tick - info.last_idx)
                reuse[bucket] += 1
                heat.reuse_hist[bucket] += 1
            info.accesses += 1
            info.last_idx = tick
            info.ctas.add(cta)
            info.pcs[key] = info.pcs.get(key, 0) + 1
            tick += 1
        self._tick = tick

    # -- finalization --------------------------------------------------------

    def report(self, classifications=None):
        """Finalize per-PC sharing/line aggregates and annotate classes
        and source lines from ``classifications``; returns the report."""
        report = HeatMapReport(
            line_bytes=self.line_bytes,
            total_touches=self._tick,
            lines=self._lines,
            pcs=self._pcs,
            reuse_hist=self._reuse,
        )
        for heat in self._pcs.values():
            heat.distinct_lines = 0
            heat.shared_touches = 0
        for info in self._lines.values():
            shared = len(info.ctas) >= 2
            for key, count in info.pcs.items():
                heat = self._pcs[key]
                heat.distinct_lines += 1
                if shared:
                    heat.shared_touches += count
        if classifications is not None:
            for heat in self._pcs.values():
                result = classifications.get(heat.kernel)
                if result is None:
                    continue
                found = result.get(heat.pc)
                if found is not None:
                    heat.load_class = str(found.load_class)
                    heat.line = found.instruction.line
                    heat.text = str(found.instruction)
        return report


def heatmap_of_run(run, line_bytes=LINE_BYTES, include_stores=False):
    """One-shot helper: heat-map report for a
    :class:`~repro.workloads.base.WorkloadRun`."""
    aggregator = HeatMapAggregator(line_bytes=line_bytes,
                                   include_stores=include_stores)
    return aggregator.analyze_application(run.trace, run.classifications)
