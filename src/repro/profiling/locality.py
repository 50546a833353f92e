"""Trace-level data-locality analysis (the paper's Sections VIII-IX).

Operates directly on emulator traces — no timing model needed — exactly
as the paper computes these metrics:

* **cold-miss ratio** (Figure 10): memory is divided into 128 B blocks;
  an access is a cold miss when it is the first access to its block by
  *any* SM/CTA.  Denominator = all coalesced global-load accesses.
* **accesses per block** (Figure 10's line): mean access count over
  touched blocks.
* **inter-CTA sharing** (Figure 11): fraction of blocks touched by 2+
  distinct CTAs, fraction of accesses going to such blocks, and the mean
  number of CTAs per shared block.
* **CTA distance** (Figure 12): when an access touches a block whose
  previous access came from a *different* CTA, record the absolute
  difference of the two linearized CTA ids.  The histogram is normalized
  by total shared accesses.  Distances are tracked per load class, which
  is how the paper shows non-deterministic loads disperse sharing across
  wide CTA ranges.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from ..ptx.isa import Space
from ..sim.config import LINE_BYTES

#: Locality block granularity — an alias of the repo-wide
#: :data:`repro.sim.config.LINE_BYTES` (kept under its historical name
#: for existing importers).
BLOCK_SIZE = LINE_BYTES


@dataclass
class BlockInfo:
    """Per-128B-block bookkeeping."""

    accesses: int = 0
    ctas: set = field(default_factory=set)
    last_cta: int = -1


@dataclass
class LocalityReport:
    """All Figure 10-12 quantities for one application run."""

    total_accesses: int = 0
    cold_misses: int = 0
    num_blocks: int = 0
    shared_blocks: int = 0
    shared_accesses: int = 0
    total_cta_count_on_shared: int = 0
    #: {distance: weighted access count}, per load class and combined.
    distance_hist: Counter = field(default_factory=Counter)
    distance_hist_by_class: Dict[str, Counter] = field(
        default_factory=lambda: {"D": Counter(), "N": Counter()})

    # -- Figure 10 -----------------------------------------------------------

    @property
    def cold_miss_ratio(self):
        if not self.total_accesses:
            return 0.0
        return self.cold_misses / self.total_accesses

    @property
    def mean_accesses_per_block(self):
        if not self.num_blocks:
            return 0.0
        return self.total_accesses / self.num_blocks

    # -- Figure 11 -------------------------------------------------------------

    @property
    def shared_block_ratio(self):
        if not self.num_blocks:
            return 0.0
        return self.shared_blocks / self.num_blocks

    @property
    def shared_access_ratio(self):
        if not self.total_accesses:
            return 0.0
        return self.shared_accesses / self.total_accesses

    @property
    def mean_ctas_per_shared_block(self):
        if not self.shared_blocks:
            return 0.0
        return self.total_cta_count_on_shared / self.shared_blocks

    # -- Figure 12 ---------------------------------------------------------------

    def distance_fractions(self, max_distance=None, load_class=None,
                           normalize="combined"):
        """``{distance: fraction of shared accesses}``, sorted by distance.

        ``load_class`` restricts the histogram to one class (``"D"`` /
        ``"N"``).  ``normalize`` picks the denominator explicitly:

        * ``"combined"`` (default, the Figure 12 convention): fractions
          of *all* shared accesses, so the per-class curves of one run
          sum to that class's share of sharing and are directly
          stackable;
        * ``"class"``: fractions of the selected histogram's own total,
          so each curve sums to 1.0.

        Returns ``{}`` when the selected denominator is zero — a class
        histogram with entries no longer vanishes just because the
        *combined* histogram happens to be empty.
        """
        if normalize not in ("combined", "class"):
            raise ValueError(
                "normalize must be 'combined' or 'class', got %r"
                % (normalize,))
        hist = (self.distance_hist if load_class is None
                else self.distance_hist_by_class.get(load_class, Counter()))
        denom = (self.distance_hist if normalize == "combined" else hist)
        total = sum(denom.values())
        if not total:
            return {}
        items = sorted(hist.items())
        if max_distance is not None:
            items = [(d, c) for d, c in items if d <= max_distance]
        return {d: c / total for d, c in items}


class LocalityAnalyzer:
    """Streams traces and accumulates a :class:`LocalityReport`."""

    def __init__(self, block_size=BLOCK_SIZE, include_stores=False):
        self.block_size = block_size
        self.include_stores = include_stores
        self._blocks: Dict[int, BlockInfo] = {}
        self._report = LocalityReport()

    def analyze_application(self, app_trace, classifications=None):
        """Process every launch of an application.

        ``classifications`` maps kernel name to its
        :class:`ClassificationResult` (enables the per-class Figure 12
        split); without it all distances land in the combined histogram.
        """
        from ..obs import tracing

        with tracing.span("profile.locality", app=app_trace.name) as sp:
            for launch in app_trace:
                pc_classes = {}
                if classifications is not None:
                    result = classifications.get(launch.kernel_name)
                    if result is not None:
                        pc_classes = {ld.pc: str(ld.load_class)
                                      for ld in result}
                self.analyze_launch(launch, pc_classes)
            report = self.report()
            sp.set(blocks=report.num_blocks,
                   accesses=report.total_accesses)
        return report

    def analyze_launch(self, launch, pc_classes=None):
        """Vectorized per-launch pass over the columnar memory table.

        Global loads (and stores with ``include_stores``; atomics are
        always excluded, as in the paper's load focus) count once per
        distinct block they touch.  Each block's accesses are taken in
        op order; a touch from a CTA other than the block's previous
        toucher records their CTA distance.  The carried per-block state
        (:class:`BlockInfo`) supplies the launch-entry ``last_cta``.
        Python touches only the launch's *unique blocks*, not its
        accesses.
        """
        from ..emulator.columnar import _PC_SHIFT, take_ragged
        from ..sim.coalescer import class_codes

        pc_classes = pc_classes or {}
        table = launch.memory_table(space=Space.GLOBAL)
        if table is None:
            return
        kinds3 = table["kind"] & 3
        keep = kinds3 == 0  # loads; atomics always excluded
        if self.include_stores:
            keep |= kinds3 == 1
        rows = np.flatnonzero(keep)
        if not len(rows):
            return
        acount = table["acount"][rows].astype(np.int64)
        addrs = take_ragged(table["addrs"], table["astart"][rows], acount)
        blocks = (addrs // self.block_size).astype(np.int64)
        row = np.repeat(np.arange(len(rows), dtype=np.int64), acount)
        if not len(row):
            return
        # distinct (op, block) pairs — the per-op ``touched`` set
        order = np.lexsort((blocks, row))
        r, b = row[order], blocks[order]
        fresh = np.empty(len(r), dtype=bool)
        fresh[0] = True
        fresh[1:] = (r[1:] != r[:-1]) | (b[1:] != b[:-1])
        r_u, b_u = r[fresh], b[fresh]
        cta_of_warp = np.asarray([w.cta_id for w in launch.warps],
                                 dtype=np.int64)
        cta_row = cta_of_warp[table["warp"][rows]]
        labels = class_codes(launch, pc_classes)[
            table["pc"][rows] >> _PC_SHIFT]
        # per-block access sequences, ordered by op position
        seq = np.lexsort((r_u, b_u))
        b2, c2, k2 = b_u[seq], cta_row[r_u[seq]], labels[r_u[seq]]
        first = np.empty(len(b2), dtype=bool)
        first[0] = True
        first[1:] = b2[1:] != b2[:-1]
        prev = np.empty(len(c2), dtype=np.int64)
        prev[1:] = c2[:-1]
        starts = np.flatnonzero(first)
        ends = np.append(starts[1:], len(b2))
        blocks_dict = self._blocks
        report = self._report
        c2_list = c2.tolist()
        for i, blk in enumerate(b2[starts].tolist()):
            info = blocks_dict.get(blk)
            if info is None:
                info = blocks_dict[blk] = BlockInfo()
                report.cold_misses += 1
            lo, hi = int(starts[i]), int(ends[i])
            prev[lo] = info.last_cta
            info.accesses += hi - lo
            info.last_cta = c2_list[hi - 1]
            info.ctas.update(c2_list[lo:hi])
        report.total_accesses += len(b2)
        changed = (prev >= 0) & (prev != c2)
        for d, c in zip(*_dist_hist(c2, prev, changed)):
            report.distance_hist[d] += c
        for code, name in ((0, "D"), (1, "N")):
            hist = report.distance_hist_by_class[name]
            for d, c in zip(*_dist_hist(c2, prev, changed & (k2 == code))):
                hist[d] += c

    def report(self):
        """Finalize the per-block aggregates and return the report."""
        report = self._report
        report.num_blocks = len(self._blocks)
        report.shared_blocks = 0
        report.shared_accesses = 0
        report.total_cta_count_on_shared = 0
        for info in self._blocks.values():
            if len(info.ctas) >= 2:
                report.shared_blocks += 1
                report.shared_accesses += info.accesses
                report.total_cta_count_on_shared += len(info.ctas)
        return report


def _dist_hist(cta, prev, mask):
    """``(distances, counts)`` of ``|cta - prev|`` over ``mask`` rows."""
    dists = np.abs(cta[mask] - prev[mask])
    values, counts = np.unique(dists, return_counts=True)
    return values.tolist(), counts.tolist()


def analyze_run(run):
    """One-shot helper: locality report for a :class:`WorkloadRun`."""
    analyzer = LocalityAnalyzer()
    return analyzer.analyze_application(run.trace, run.classifications)
