"""Warp-level irregularity metrics (Burtscher et al., IISWC 2012).

The paper's related-work section contrasts its load classification with
Burtscher's two runtime metrics for irregular GPU programs:

* **control-flow irregularity (CFI)** — how far warps run below full
  SIMT occupancy.  We report the classic *SIMT inefficiency*:
  ``1 - mean(active_lanes / warp_size)`` over executed warp
  instructions.
* **memory-access irregularity (MAI)** — how far memory accesses are
  from perfectly coalesced.  We report
  ``1 - mean(minimal_requests / actual_requests)`` over global memory
  warp accesses, where ``minimal_requests`` is the fewest 128 B
  transactions the active lanes could need
  (``ceil(active * access width / 128)``).

Both are computed straight from emulator traces, and — reproducing
Burtscher's key finding that the paper cites — the two are largely
*independent*: an application can be control-regular yet memory-
irregular (spmv) and vice versa.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..emulator.columnar import _KIND_ATOMIC, _PC_SHIFT, SPACE_CODES
from ..emulator.grid import WARP_SIZE
from ..sim.coalescer import coalesce_table
from ..sim.config import LINE_BYTES


@dataclass(frozen=True)
class IrregularityReport:
    """CFI / MAI for one application."""

    warp_instructions: int
    mean_active_lanes: float
    control_flow_irregularity: float
    memory_accesses: int
    memory_access_irregularity: float

    def __str__(self):
        return ("CFI %.3f (mean %.1f/%d lanes over %d insts), "
                "MAI %.3f (over %d accesses)"
                % (self.control_flow_irregularity, self.mean_active_lanes,
                   WARP_SIZE, self.warp_instructions,
                   self.memory_access_irregularity, self.memory_accesses))


def measure_irregularity(app_trace, line_size=LINE_BYTES):
    """Compute the warp-level irregularity metrics for an application."""
    total_insts = 0
    total_active = 0
    accesses = 0
    coalescing_sum = 0.0
    for launch in app_trace:
        total_insts += launch.total_warp_instructions()
        total_active += launch.total_thread_instructions()
        # global loads and stores that issued at least one request
        kind = launch.kind
        ops = coalesce_table(launch, ((kind >> 2) == SPACE_CODES["global"])
                             & ((kind & 3) != _KIND_ATOMIC), line_size)
        issued = ops.lines > 0
        rows = ops.rows[issued]
        footprint = (ops.lanes[issued]
                     * launch.access_bytes[launch.pc[rows] >> _PC_SHIFT])
        minimal = np.maximum(1, -(-footprint // line_size))
        accesses += len(rows)
        # plain op-order accumulation: NumPy's pairwise sum and 3.12's
        # compensated builtin sum would both round differently
        for m, r in zip(minimal.tolist(), ops.lines[issued].tolist()):
            coalescing_sum += m / r

    mean_active = total_active / total_insts if total_insts else 0.0
    cfi = 1.0 - mean_active / WARP_SIZE if total_insts else 0.0
    mai = 1.0 - (coalescing_sum / accesses) if accesses else 0.0
    return IrregularityReport(
        warp_instructions=total_insts,
        mean_active_lanes=mean_active,
        control_flow_irregularity=max(0.0, cfi),
        memory_accesses=accesses,
        memory_access_irregularity=max(0.0, mai),
    )
