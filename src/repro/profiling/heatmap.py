"""Per-line memory heat maps of coalesced global loads.

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

The report is built by the one trace-profile pass
(:mod:`repro.profiling.trace_profile`), together with the locality
report and the request histograms, from the same coalesced accesses.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

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

    __slots__ = ("accesses", "ctas", "last_idx", "last_cta", "pcs")

    def __init__(self):
        self.accesses = 0
        self.ctas = set()
        #: global access index and CTA of the line's latest touch.
        self.last_idx = -1
        self.last_cta = -1
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
    #: filled when the trace profile is finalized.
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
