"""The memory-access coalescer.

"GPUs coalesce data accesses from multiple threads in a warp if they all
access consecutive memory locations.  The coalescer sits before the L1
cache and hence each coalesced request generates one memory access request
to the L1 cache." (Section VI.)

Following Fermi's global-memory transaction rules, lane addresses are
reduced to the set of distinct 128 B-aligned blocks they touch; each block
becomes one :class:`~repro.sim.request.MemRequest`.  A perfectly coalesced
warp (32 consecutive 4 B words) yields a single request; a fully scattered
warp yields up to 32.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from .config import LINE_BYTES


def coalesce_addresses(addresses, line_size=LINE_BYTES, access_size=4):
    """Reduce per-lane byte addresses to distinct block base addresses.

    Parameters
    ----------
    addresses:
        Iterable of ``(lane, byte_address)`` pairs (the trace format).
    line_size:
        Coalescing granularity; 128 B on Fermi and in the paper's analysis.
    access_size:
        Per-thread access width; accesses that straddle a block boundary
        touch two blocks (rare for naturally aligned data).

    Returns
    -------
    list of int
        Sorted distinct block base addresses, one per memory request.
    """
    blocks = set()
    for _lane, addr in addresses:
        first = addr // line_size
        last = (addr + access_size - 1) // line_size
        blocks.add(first * line_size)
        if last != first:
            blocks.add(last * line_size)
    return sorted(blocks)


def coalescing_degree(addresses, line_size=LINE_BYTES, access_size=4):
    """(num_requests, num_active_lanes) for one warp access — the two
    quantities Figure 2 reports per load class."""
    lanes = 0
    blocks = set()
    for _lane, addr in addresses:
        lanes += 1
        first = addr // line_size
        last = (addr + access_size - 1) // line_size
        blocks.add(first)
        if last != first:
            blocks.add(last)
    return len(blocks), lanes


def table_degrees(table, access_sizes, line_size=LINE_BYTES):
    """Vectorized :func:`coalescing_degree` over a columnar launch's
    :meth:`~repro.emulator.columnar.ColumnarLaunchTrace.memory_table`.

    ``access_sizes`` is a per-row access-width array (or a scalar).
    Returns ``(n_requests, n_lanes)`` int64 arrays, one entry per table
    row; rows with no recorded accesses get 0 requests.
    """
    acount = table["acount"].astype(np.int64)
    nrows = len(acount)
    addrs = table["addrs"].astype(np.int64)
    row = np.repeat(np.arange(nrows, dtype=np.int64), acount)
    acc = np.asarray(access_sizes, dtype=np.int64)
    if acc.ndim:
        acc = np.repeat(acc, acount)
    first = addrs // line_size
    last = (addrs + acc - 1) // line_size
    # distinct (row, block) pairs, counting boundary-straddling accesses
    # toward both blocks — identical to coalesce_addresses' set logic
    rows2 = np.concatenate([row, row])
    blocks2 = np.concatenate([first, last])
    if not len(rows2):
        return np.zeros(nrows, dtype=np.int64), acount
    order = np.lexsort((blocks2, rows2))
    r = rows2[order]
    b = blocks2[order]
    fresh = np.empty(len(r), dtype=bool)
    fresh[0] = True
    fresh[1:] = (r[1:] != r[:-1]) | (b[1:] != b[:-1])
    n_req = np.bincount(r[fresh], minlength=nrows)
    return n_req, acount


def class_codes(launch, pc_classes):
    """Per-instruction D/N/other codes (0/1/2) for vectorized bucketing
    of a launch's memory table by load class."""
    from ..emulator.columnar import _PC_SHIFT

    codes = np.full(len(launch.instructions), 2, dtype=np.int8)
    for pc, cls in pc_classes.items():
        idx = pc >> _PC_SHIFT
        if 0 <= idx < len(codes):
            codes[idx] = 0 if cls == "D" else 1 if cls == "N" else 2
    return codes


_CLASS_LABELS = ((0, "D"), (1, "N"), (2, "other"))


@dataclass
class CoalescingSummary:
    """Per-class coalescing aggregates computed directly from a trace.

    The timing simulator accumulates the same quantities into
    :class:`~repro.sim.stats.ClassStats` while replaying; this summary
    needs no timing model, so the metrics bridge and the golden-stats
    fixtures can report coalescing behaviour from emulation alone.
    """

    warp_loads: Dict[str, int] = field(
        default_factory=lambda: {"D": 0, "N": 0, "other": 0})
    requests: Dict[str, int] = field(
        default_factory=lambda: {"D": 0, "N": 0, "other": 0})
    active_threads: Dict[str, int] = field(
        default_factory=lambda: {"D": 0, "N": 0, "other": 0})
    #: warp loads that produced more than one memory request.
    uncoalesced: Dict[str, int] = field(
        default_factory=lambda: {"D": 0, "N": 0, "other": 0})

    def record(self, load_class, n_requests, n_lanes):
        label = load_class if load_class in ("D", "N") else "other"
        self.warp_loads[label] += 1
        self.requests[label] += n_requests
        self.active_threads[label] += n_lanes
        if n_requests > 1:
            self.uncoalesced[label] += 1

    def requests_per_warp(self, label):
        loads = self.warp_loads[label]
        return self.requests[label] / loads if loads else 0.0

    def uncoalesced_fraction(self, label):
        loads = self.warp_loads[label]
        return self.uncoalesced[label] / loads if loads else 0.0


def summarize_trace(app_trace, classifications=None, line_size=LINE_BYTES):
    """Coalesce every global-load warp instruction of an application
    trace, bucketed by load class.

    ``classifications`` maps kernel name to a
    :class:`~repro.core.classifier.ClassificationResult` (or a plain
    ``{pc: class}`` dict); loads without one land in ``"other"``.  The
    per-thread access width comes from each instruction
    (``inst.access_bytes``), matching the timing simulator's coalescer
    invocation exactly.
    """
    from ..emulator.columnar import _PC_SHIFT
    from ..ptx.isa import Space

    summary = CoalescingSummary()
    for launch in app_trace:
        pc_classes = {}
        if classifications is not None:
            result = classifications.get(launch.kernel_name)
            if result is not None:
                if isinstance(result, dict):
                    pc_classes = dict(result)
                else:
                    pc_classes = {ld.pc: str(ld.load_class) for ld in result}
        table = launch.memory_table(space=Space.GLOBAL, loads_only=True)
        if table is None:
            continue
        idx = table["pc"] >> _PC_SHIFT
        access = np.asarray([inst.access_bytes
                             for inst in launch.instructions],
                            dtype=np.int64)[idx]
        n_req, n_lanes = table_degrees(table, access, line_size=line_size)
        labels = class_codes(launch, pc_classes)[idx]
        sel = n_lanes > 0  # ops that recorded no access issue nothing
        for code, name in _CLASS_LABELS:
            m = sel & (labels == code)
            count = int(m.sum())
            if not count:
                continue
            summary.warp_loads[name] += count
            summary.requests[name] += int(n_req[m].sum())
            summary.active_threads[name] += int(n_lanes[m].sum())
            summary.uncoalesced[name] += int((n_req[m] > 1).sum())
    return summary
