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

:func:`coalesce_addresses` is the per-op rule the timing model applies;
:func:`coalesce_table` applies the same rule to a whole table of memory
ops at once and is the one coalesced-access pass behind every trace
profile: the request histograms (:class:`CoalescingSummary`), locality
and heat map of :mod:`repro.profiling.trace_profile`, and the
irregularity metrics.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, NamedTuple

import numpy as np

from ..core.classifier import ClassificationResult
from .config import LINE_BYTES
from .stats import CLASS_LABELS, class_label


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
    addresses = list(addresses)
    return (len(coalesce_addresses(addresses, line_size, access_size)),
            len(addresses))


class CoalescedOps(NamedTuple):
    """The coalesced accesses of a table of memory ops
    (:func:`coalesce_table`)."""

    #: table rows of the counted ops, in op order.
    rows: np.ndarray
    #: per counted op: its recorded lane accesses.
    lanes: np.ndarray
    #: per counted op: the distinct lines it touches, i.e. its memory
    #: requests (0 for an op whose lanes were all predicated off).
    lines: np.ndarray
    #: the distinct (op, line) pairs, grouped by op in op order with
    #: lines ascending: the op's position in :attr:`rows` ...
    pair_ops: np.ndarray
    #: ... and the line (byte address // line size).
    pair_lines: np.ndarray


def coalesce_table(table, access_bytes, stores=False, line_size=LINE_BYTES):
    """Coalesce every global load of a table of memory ops — the one
    (op, line) pass behind every trace profile.

    ``table`` is a
    :meth:`~repro.emulator.columnar.ColumnarLaunchTrace.memory_table`
    dict or one :meth:`~repro.emulator.columnar.ColumnarWarpTrace.iter_chunks`
    tuple: per-op ``pc``, ``kind`` and ``acount`` columns and the
    op-ordered ``addrs`` they count into.  ``access_bytes`` holds each
    instruction's per-lane width, indexed by ``pc >> _PC_SHIFT``
    (:attr:`~repro.emulator.columnar.ColumnarLaunchTrace.access_bytes`).

    Global loads count, and global stores too with ``stores``; atomics
    never do.  Like :func:`coalesce_addresses` in the timing model, an
    access that crosses a line boundary touches both lines.
    """
    from ..emulator.columnar import (
        _KIND_LOAD, _KIND_STORE, _PC_SHIFT, COLUMNS, SPACE_CODES)

    if isinstance(table, tuple):
        table = dict(zip((name for name, _dtype in COLUMNS), table))
    kind = table["kind"]
    access = kind & 3
    keep = access == _KIND_LOAD
    if stores:
        keep |= access == _KIND_STORE
    keep &= (kind >> 2) == SPACE_CODES["global"]  # never KIND_NONE
    rows = np.flatnonzero(keep)
    lanes = table["acount"][rows].astype(np.int64)
    addrs = table["addrs"][np.repeat(keep, table["acount"])]
    op = np.repeat(np.arange(len(rows), dtype=np.int64), lanes)
    line = addrs // line_size
    # only an access that starts less than the widest width before its
    # line's end can cross it; those few are checked against their width
    width = access_bytes[table["pc"][rows] >> _PC_SHIFT].astype(np.uint64)
    offset = addrs % line_size
    near = np.flatnonzero(offset + int(width.max(initial=0)) > line_size)
    near_width = width[op[near]]
    crosses = offset[near] + near_width > line_size
    cross = near[crosses]
    if len(cross):  # one more entry per line-crossing access only
        last = (addrs[cross] + near_width[crosses] - 1) // line_size
        op = np.concatenate([op, op[cross]])
        line = np.concatenate([line, last])
    # pack each (op, line) pair into one int64 key: one sort orders the
    # pairs and a comparison with the neighbour finds the distinct ones
    lo = int(line.min()) if len(line) else 0
    span = int(line.max()) - lo + 1 if len(line) else 1
    if len(rows) * span < 1 << 63:
        key = np.sort(op * span + (line - lo).astype(np.int64))
        fresh = np.empty(len(key), dtype=bool)
        fresh[:1] = True
        np.not_equal(key[1:], key[:-1], out=fresh[1:])
        op, line = np.divmod(key[fresh], span)
        line += lo
    else:  # lines too far apart to share an int64 key with their op
        op, line = np.unique(np.stack([op, line.astype(np.int64)]), axis=1)
    return CoalescedOps(rows, lanes, np.bincount(op, minlength=len(rows)),
                        op, line)


def pc_class_map(classification):
    """Normalize a classification argument — a
    :class:`~repro.core.classifier.ClassificationResult`, a plain
    ``{pc: "D"/"N"}`` dict or ``None`` — into ``{pc: "D"/"N"}``."""
    if classification is None:
        return {}
    if isinstance(classification, dict):
        return dict(classification)
    if isinstance(classification, ClassificationResult):
        return {load.pc: str(load.load_class) for load in classification}
    raise TypeError("classification must be None, a dict or a "
                    "ClassificationResult")


def class_codes(launch, classification):
    """Per-instruction D/N/other codes (0/1/2) for vectorized bucketing
    of a launch's memory ops by load class; ``classification`` is
    anything :func:`pc_class_map` accepts."""
    from ..emulator.columnar import _PC_SHIFT

    codes = np.full(len(launch.instructions), 2, dtype=np.int8)
    for pc, cls in pc_class_map(classification).items():
        idx = pc >> _PC_SHIFT
        if 0 <= idx < len(codes):
            codes[idx] = 0 if cls == "D" else 1 if cls == "N" else 2
    return codes


@dataclass
class CoalescingSummary:
    """Per-class histograms of memory requests per global-load warp
    instruction, computed directly from a trace.

    Figure 6's observation is the shape of these histograms: a
    deterministic load makes 1-2 requests, while "the same
    non-deterministic load instruction generates one to 32 memory
    requests per each warp during different instances of its
    execution".  The timing simulator accumulates the totals into
    :class:`~repro.sim.stats.ClassStats` while replaying; this summary
    needs no timing model, so the metrics bridge and the golden-stats
    fixtures can report coalescing behaviour from emulation alone.  It
    is built by :func:`~repro.profiling.trace_profile.profile_trace`,
    which counts only loads that issue at least one request.
    """

    #: ``{class: Counter({requests: warp loads})}``.
    histogram: Dict[str, Counter] = field(
        default_factory=lambda: {label: Counter()
                                 for label in CLASS_LABELS})

    def record(self, load_class, n_requests):
        self.histogram[class_label(load_class)][n_requests] += 1

    @property
    def warp_loads(self):
        return {label: sum(hist.values())
                for label, hist in self.histogram.items()}

    @property
    def requests(self):
        return {label: sum(n * count for n, count in hist.items())
                for label, hist in self.histogram.items()}

    @property
    def uncoalesced(self):
        """Warp loads that produced more than one memory request."""
        return {label: sum(count for n, count in hist.items() if n > 1)
                for label, hist in self.histogram.items()}

    def requests_per_warp(self, label):
        loads = self.warp_loads[label]
        return self.requests[label] / loads if loads else 0.0
