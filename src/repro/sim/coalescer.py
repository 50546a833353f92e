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

:func:`coalesce_table` applies the rule at once to the memory ops of
a whole launch, read straight off the sealed launch's columns and
picked by a row mask over its ``kind`` column.  It is the one
coalescing pass: the timing model reads each launch's
:class:`MemoryPlan`, built by one such pass before the launch replays,
and every trace profile builds on it (the request histograms of
:class:`CoalescingSummary`, the locality report and heat map of
:mod:`repro.profiling.trace_profile`, and the irregularity metrics).
:func:`coalesce_addresses` is the same rule for one op at a time, the
reference the pass is tested against.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, NamedTuple

import numpy as np

from ..core.classifier import ClassificationResult
from ..emulator.columnar import _PC_SHIFT, SPACE_CODES
from .config import LINE_BYTES
from .stats import CLASS_LABELS, class_label

#: per kind code: whether the op goes through the L1 and its coalescer
#: (``KIND_NONE`` has no space code)
_L1_KINDS = np.isin(np.arange(256) >> 2, [
    SPACE_CODES[name] for name in ("global", "local", "tex")])


def coalesce_addresses(addresses, line_size=LINE_BYTES, access_size=4):
    """The sorted distinct ``line_size`` block base addresses, one per
    memory request, of one op's ``(lane, byte_address)`` pairs; an
    ``access_size``-byte access that straddles a block boundary touches
    both blocks.  The one-op reference for :func:`coalesce_table`."""
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


def coalesce_table(launch, keep, line_size=LINE_BYTES):
    """Coalesce the memory ops of a sealed launch: the one (op, line)
    pass behind every trace profile and the timing model.

    ``launch`` is a
    :class:`~repro.emulator.columnar.ColumnarLaunchTrace`; the ops
    counted are the rows of its columns that the boolean row mask
    ``keep`` selects, each access ``launch.access_bytes`` wide for its
    instruction.  Like :func:`coalesce_addresses`, an access that
    crosses a line boundary touches both lines.
    """
    counts = launch.acount
    rows = np.flatnonzero(keep)
    lanes = counts[rows].astype(np.int64)
    width = launch.access_bytes[launch.pc[rows] >> _PC_SHIFT]
    return CoalescedOps(rows, lanes, *coalesce_accesses(
        lanes, launch.addrs[np.repeat(keep, counts)], width, line_size))


def coalesce_accesses(lanes, addrs, width, line_size=LINE_BYTES):
    """The core of :func:`coalesce_table` over a table of ops given as
    arrays: per op its recorded lane accesses ``lanes`` and its
    accesses' byte ``width``, and every access's address ``addrs`` in
    op order.  Returns the :class:`CoalescedOps` fields ``(lines,
    pair_ops, pair_lines)``."""
    n_ops = len(lanes)
    op = np.repeat(np.arange(n_ops, dtype=np.int64), lanes)
    line = addrs // line_size
    # only an access that starts less than the widest width before its
    # line's end can cross it; those few are checked against their width
    width = width.astype(np.uint64)
    offset = addrs % line_size
    near = np.flatnonzero(offset + int(width.max(initial=0)) > line_size)
    near_width = width[op[near]]
    crosses = offset[near] + near_width > line_size
    cross = near[crosses]
    if len(cross):  # one more entry per line-crossing access only
        last = (addrs[cross] + near_width[crosses] - 1) // line_size
        op = np.concatenate([op, op[cross]])
        line = np.concatenate([line, last])
    op, line = _distinct(op, line, n_ops)
    return np.bincount(op, minlength=n_ops), op, line


def _distinct(op, value, n_ops):
    """The distinct ``(op, value)`` pairs of two integer arrays (ops
    below ``n_ops``), grouped by op in op order, values ascending."""
    # pack each pair into one int64 key: one sort orders the pairs and a
    # comparison with the neighbour finds the distinct ones
    lo = int(value.min()) if len(value) else 0
    span = int(value.max()) - lo + 1 if len(value) else 1
    if n_ops * span < 1 << 63:
        key = np.sort(op * span + (value - lo).astype(np.int64))
        fresh = np.empty(len(key), dtype=bool)
        fresh[:1] = True
        np.not_equal(key[1:], key[:-1], out=fresh[1:])
        op, value = np.divmod(key[fresh], span)
        return op, value + lo
    # values too far apart to share an int64 key with their op
    return np.unique(np.stack([op, value.astype(np.int64)]), axis=1)


class MemoryPlan:
    """A launch's ops as the timing model's LD/ST unit reads them, from
    one pass over the sealed launch's columns before it replays.  Row
    ``warp.base + i`` is op ``i`` of that warp's trace.  Per row: the
    op's ``kind`` code, its recorded lane accesses ``lanes``, its LD/ST
    ``port`` cycles (a shared access: the worst bank's count of distinct
    words, as lanes reading one word share a broadcast; else 1) and, for
    a global, local or tex op, its distinct L1 blocks (:meth:`requests`).
    """

    __slots__ = ("kind", "lanes", "port", "_start", "_blocks")

    def __init__(self, launch, config):
        launch.seal()
        kind, counts, addrs = launch.kind, launch.acount, launch.addrs
        n = len(kind)
        ops = coalesce_table(launch, _L1_KINDS[kind], config.l1_line_size)
        start = np.zeros(n + 1, dtype=np.int64)
        start[ops.rows + 1] = ops.lines
        self._start = memoryview(np.cumsum(start, out=start))
        self._blocks = memoryview(ops.pair_lines * config.l1_line_size)
        # shared ops: distinct (op, word) pairs, counted per (op, bank)
        shared = (kind >> 2) == SPACE_CODES["shared"]  # never KIND_NONE
        rows = np.flatnonzero(shared)
        op = np.repeat(np.arange(len(rows), dtype=np.int64), counts[rows])
        op, word = _distinct(op, addrs[np.repeat(shared, counts)]
                             // config.shared_bank_width, len(rows))
        banks = config.shared_banks
        key, words = np.unique(op * banks + word % banks, return_counts=True)
        port = np.ones(n, dtype=np.int64)
        np.maximum.at(port, rows[key // banks], words)
        # memoryviews index to plain ints, cheaper than numpy scalars
        self.port = memoryview(port)
        self.kind = memoryview(kind)
        self.lanes = memoryview(counts)

    def requests(self, row):
        """The sorted distinct block addresses of an L1-path op."""
        start = self._start
        return self._blocks[start[row]:start[row + 1]].tolist()


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
