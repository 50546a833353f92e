"""Trace-level data-locality report (the paper's Sections VIII-IX).

Computed directly from emulator traces — no timing model needed — by
the one trace-profile pass (:mod:`repro.profiling.trace_profile`),
exactly as the paper computes these metrics:

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
