"""Warp-level execution traces produced by the functional emulator.

A trace records, per warp, every executed instruction with its active mask
and (for memory operations) the per-lane effective addresses.  Traces are
the interface between the functional emulator and both:

* the timing simulator (:mod:`repro.sim`), which replays them through the
  modeled memory hierarchy, and
* the trace-level locality analyses (:mod:`repro.profiling.locality`).

Each launch is a :class:`~repro.emulator.columnar.ColumnarLaunchTrace`;
this module holds the application-level container and :class:`TraceOp`,
the one-object-per-op record that the columnar traces' read-only
``ops`` view yields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .._bits import popcount
from ..ptx.isa import Instruction

if TYPE_CHECKING:
    from .columnar import ColumnarLaunchTrace


class TraceOp:
    """One dynamic warp instruction.

    ``addresses`` is ``None`` for non-memory instructions; for memory
    instructions it is a tuple of ``(lane, byte_address)`` pairs covering
    the lanes that actually issued an access.

    ``values`` is ``None`` except for stores, where it holds the stored
    values flattened lane-major (for ``st.v2``/``st.v4`` each lane
    contributes ``vector`` consecutive elements).  Store events are part
    of the serialized format so the correctness analyzer
    (:mod:`repro.analysis`) can distinguish benign same-value write
    sharing from genuinely conflicting inter-CTA writes.
    """

    __slots__ = ("inst", "active_mask", "addresses", "values")

    def __init__(self, inst, active_mask, addresses=None, values=None):
        self.inst: Instruction = inst
        self.active_mask: int = active_mask
        self.addresses: Optional[Tuple[Tuple[int, int], ...]] = addresses
        self.values: Optional[Tuple[object, ...]] = values

    @property
    def pc(self):
        return self.inst.pc

    @property
    def active_count(self):
        return popcount(self.active_mask)

    @property
    def is_memory(self):
        return self.addresses is not None

    def __repr__(self):
        return "TraceOp(%#x %s mask=%#010x%s)" % (
            self.inst.pc, self.inst.mnemonic(), self.active_mask,
            " %d addrs" % len(self.addresses) if self.addresses else "")


@dataclass
class ApplicationTrace:
    """Every launch an application performed, in order.

    GPU applications often launch the same kernel repeatedly (BFS iterates
    until the frontier is empty); the per-launch traces are concatenated
    for whole-application statistics.
    """

    name: str
    launches: List[ColumnarLaunchTrace] = field(default_factory=list)

    def add(self, launch_trace):
        self.launches.append(launch_trace)
        return launch_trace

    def total_warp_instructions(self):
        return sum(launch.total_warp_instructions()
                   for launch in self.launches)

    def global_load_warp_count(self):
        return sum(launch.global_load_warp_count() for launch in self.launches)

    def shared_load_warp_count(self):
        return sum(launch.shared_load_warp_count() for launch in self.launches)

    def dynamic_counts_by_pc(self, kernel_name):
        """Summed per-PC global-load counts for one kernel across launches."""
        counts: Dict[int, int] = {}
        for launch in self.launches:
            if launch.kernel_name != kernel_name:
                continue
            for pc, n in launch.dynamic_counts_by_pc().items():
                counts[pc] = counts.get(pc, 0) + n
        return counts

    def kernel_names(self):
        seen = []
        for launch in self.launches:
            if launch.kernel_name not in seen:
                seen.append(launch.kernel_name)
        return seen

    def __iter__(self):
        return iter(self.launches)

    def __len__(self):
        return len(self.launches)
