"""Statistics collected by the timing simulator.

Everything the paper's figures report is accumulated here:

* per-load-class (D/N) request counts → Figure 2,
* L1 cache-cycle outcome counters → Figure 3,
* functional-unit busy cycles → Figure 4,
* turnaround-time component sums per class → Figure 5,
* per-(PC, request-count) turnaround records → Figures 6 and 7,
* per-class L1/L2 hit-miss counts → Figure 8.

Classes are keyed by the strings ``"D"``, ``"N"`` and ``"other"`` (stores,
atomics or loads with no classification available).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from .cache import Outcome

CLASS_LABELS = ("D", "N", "other")


def class_label(load_class):
    """Normalize a load-class value to one of :data:`CLASS_LABELS`."""
    if load_class in ("D", "N"):
        return load_class
    return "other"


@dataclass
class ClassStats:
    """Aggregates for one load class (Figures 2, 5 and 8)."""

    # Figure 2: coalescing behaviour
    warp_insts: int = 0
    requests: int = 0
    active_threads: int = 0

    # Figure 8: cache behaviour (accepted accesses only)
    l1_hit: int = 0
    l1_hit_reserved: int = 0
    l1_miss: int = 0
    l2_hit: int = 0
    l2_miss: int = 0

    # Figure 5: turnaround components (sums over completed load warps)
    completed: int = 0
    turnaround_sum: int = 0
    wait_prev_sum: int = 0      # issue -> first request accepted
    wait_cur_sum: int = 0       # first -> last request accepted

    # -- derived -----------------------------------------------------------

    def requests_per_warp(self):
        return self.requests / self.warp_insts if self.warp_insts else 0.0

    def requests_per_active_thread(self):
        return self.requests / self.active_threads if self.active_threads else 0.0

    def l1_accesses(self):
        return self.l1_hit + self.l1_hit_reserved + self.l1_miss

    def l1_miss_ratio(self):
        total = self.l1_accesses()
        return self.l1_miss / total if total else 0.0

    def l2_miss_ratio(self):
        total = self.l2_hit + self.l2_miss
        return self.l2_miss / total if total else 0.0

    def mean_turnaround(self):
        return self.turnaround_sum / self.completed if self.completed else 0.0

    def mean_wait_prev(self):
        return self.wait_prev_sum / self.completed if self.completed else 0.0

    def mean_wait_cur(self):
        return self.wait_cur_sum / self.completed if self.completed else 0.0

    def merge(self, other):
        for name in ("warp_insts", "requests", "active_threads", "l1_hit",
                     "l1_hit_reserved", "l1_miss", "l2_hit", "l2_miss",
                     "completed", "turnaround_sum", "wait_prev_sum",
                     "wait_cur_sum"):
            setattr(self, name, getattr(self, name) + getattr(other, name))


@dataclass
class PCBucket:
    """Turnaround records for one (kernel, pc) at one request count —
    the raw material for Figures 6 and 7."""

    count: int = 0
    turnaround_sum: int = 0
    wait_first_sum: int = 0     # issue -> first acceptance
    gap_l1d_sum: int = 0        # first -> last acceptance spread
    gap_icnt_l2_sum: int = 0    # extra spread accumulated SM -> L2
    gap_l2_icnt_sum: int = 0    # extra spread accumulated L2 -> SM

    def mean(self, attr):
        return getattr(self, attr) / self.count if self.count else 0.0


@dataclass
class SimStats:
    """Top-level statistics container, accumulated across launches."""

    classes: Dict[str, ClassStats] = field(
        default_factory=lambda: {label: ClassStats()
                                 for label in CLASS_LABELS})
    #: L1 cache-cycle outcomes: {outcome: cycles}; every cycle the L1 port
    #: processed (or retried) a request counts once (Figure 3).
    l1_cycles: Dict[Outcome, int] = field(
        default_factory=lambda: {o: 0 for o in Outcome})
    #: the same broken down per load class.
    l1_cycles_by_class: Dict[str, Dict[Outcome, int]] = field(
        default_factory=lambda: {label: {o: 0 for o in Outcome}
                                 for label in CLASS_LABELS})
    #: functional-unit busy cycles (Figure 4).
    unit_busy: Dict[str, int] = field(
        default_factory=lambda: {"sp": 0, "sfu": 0, "ldst": 0})
    #: cycles during which at least one warp was resident, summed over SMs.
    active_sm_cycles: int = 0
    #: total simulated cycles.
    cycles: int = 0
    #: per-(kernel, pc, n_requests) turnaround buckets (Figures 6-7).
    pc_buckets: Dict[Tuple[str, int, int], PCBucket] = field(
        default_factory=dict)
    #: dynamic instruction counters
    issued_warp_insts: int = 0
    shared_load_insts: int = 0
    global_load_insts: int = 0
    global_store_insts: int = 0
    #: interconnect congestion telemetry
    icnt_injected: int = 0
    icnt_queue_delay: int = 0
    #: L2 head-of-line stall cycles (reservation retries at the slices).
    l2_stall_cycles: int = 0
    #: DRAM requests served
    dram_reads: int = 0
    dram_writes: int = 0
    #: prefetcher activity (Section X.A extension)
    prefetch_issued: int = 0
    prefetch_dropped: int = 0
    #: extra LD/ST port cycles lost to shared-memory bank conflicts
    shared_bank_conflict_cycles: int = 0
    #: SM-active cycles in which *no* instruction issued, by reason:
    #: "scoreboard" (data dependencies / memory wait), "unit_busy"
    #: (ready warp but its unit or the LD/ST queue was occupied),
    #: "barrier" (every live warp at a bar.sync), "drained" (all traces
    #: finished, waiting on outstanding memory).
    issue_stall: Dict[str, int] = field(
        default_factory=lambda: {"scoreboard": 0, "unit_busy": 0,
                                 "barrier": 0, "drained": 0})

    # -- recording helpers ----------------------------------------------------

    def record_l1_cycle(self, outcome, load_class, cycles=1):
        self.l1_cycles[outcome] += cycles
        self.l1_cycles_by_class[class_label(load_class)][outcome] += cycles

    def record_coalescing(self, load_class, n_requests, n_active):
        cls = self.classes[class_label(load_class)]
        cls.warp_insts += 1
        cls.requests += n_requests
        cls.active_threads += n_active

    def record_l1_result(self, outcome, load_class):
        cls = self.classes[class_label(load_class)]
        if outcome is Outcome.HIT:
            cls.l1_hit += 1
        elif outcome is Outcome.HIT_RESERVED:
            cls.l1_hit_reserved += 1
        elif outcome is Outcome.MISS:
            cls.l1_miss += 1

    def record_l2_result(self, hit, load_class):
        cls = self.classes[class_label(load_class)]
        if hit:
            cls.l2_hit += 1
        else:
            cls.l2_miss += 1

    def record_load_completion(self, kernel_name, pc, load_class, n_requests,
                               turnaround, wait_first, gap_l1d, gap_icnt_l2,
                               gap_l2_icnt):
        cls = self.classes[class_label(load_class)]
        cls.completed += 1
        cls.turnaround_sum += turnaround
        cls.wait_prev_sum += wait_first
        cls.wait_cur_sum += gap_l1d
        key = (kernel_name, pc, n_requests)
        bucket = self.pc_buckets.get(key)
        if bucket is None:
            bucket = self.pc_buckets[key] = PCBucket()
        bucket.count += 1
        bucket.turnaround_sum += turnaround
        bucket.wait_first_sum += wait_first
        bucket.gap_l1d_sum += gap_l1d
        bucket.gap_icnt_l2_sum += gap_icnt_l2
        bucket.gap_l2_icnt_sum += gap_l2_icnt

    # -- derived views -----------------------------------------------------------

    def l1_cycle_fractions(self):
        """{outcome: fraction of L1 cache cycles} — Figure 3's bars."""
        total = sum(self.l1_cycles.values())
        if not total:
            return {o: 0.0 for o in Outcome}
        return {o: c / total for o, c in self.l1_cycles.items()}

    def overall(self):
        """Every load class's counts summed into one :class:`ClassStats`."""
        total = ClassStats()
        for cls in self.classes.values():
            total.merge(cls)
        return total

    def l1_miss_ratio(self):
        """L1 miss ratio over all classes (hit-reserved counts as a hit)."""
        return self.overall().l1_miss_ratio()

    def l2_miss_ratio(self):
        """L2 miss ratio over all classes."""
        return self.overall().l2_miss_ratio()

    def reservation_fail_fraction(self):
        fr = self.l1_cycle_fractions()
        return (fr[Outcome.RSRV_FAIL_TAGS] + fr[Outcome.RSRV_FAIL_MSHR]
                + fr[Outcome.RSRV_FAIL_ICNT])

    def unit_idle_fractions(self):
        """{unit: idle fraction} over SM-active cycles — Figure 4."""
        denom = self.active_sm_cycles
        if not denom:
            return {u: 1.0 for u in self.unit_busy}
        return {u: max(0.0, 1.0 - busy / denom)
                for u, busy in self.unit_busy.items()}

    def pc_series(self, kernel_name, pc):
        """Sorted ``[(n_requests, PCBucket)]`` for one load instruction —
        one line of Figure 6 / the bars of Figure 7."""
        out = [(key[2], bucket) for key, bucket in self.pc_buckets.items()
               if key[0] == kernel_name and key[1] == pc]
        return sorted(out, key=lambda item: item[0])

    def issue_stall_fractions(self):
        """{reason: fraction of SM-active cycles stalled for it}, plus
        "issued" for the remainder."""
        denom = self.active_sm_cycles
        if not denom:
            return {}
        out = {reason: cycles / denom
               for reason, cycles in self.issue_stall.items()}
        out["issued"] = max(0.0, 1.0 - sum(out.values()))
        return out
