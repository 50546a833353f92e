"""Barrier-interval happens-before race detection over emulator traces.

The detector replays each kernel launch's memory events from its
columnar trace (per-lane addresses for every space, stored values for
stores) and reports:

* **shared-race** — two accesses to the same shared-memory element in
  the same barrier interval of the same CTA, from different threads, at
  least one a plain (non-``atom``) store.  The barrier interval of an
  access is the number of ``bar.sync`` ops its warp has executed; two
  accesses in the same interval have no happens-before edge, so their
  order — and the result — is schedule-dependent.
* **global-write-conflict** — two plain global stores to the same
  element from *different CTAs* writing *different values*.  CTAs share
  no synchronization primitive, so differing-value overlap is always a
  conflict; same-value overlap (convergence flags, same-level frontier
  writes) is the benign idiom the paper's workloads rely on and is not
  flagged — which is why the trace schema carries store values.
* **divergent-barrier** — a ``bar.sync`` executed with an active mask
  smaller than the warp's live (non-exited) lanes: some live threads
  took a path around the barrier their siblings are waiting at.
* **barrier-mismatch** — two warps of one CTA that both synchronize but
  execute different numbers of barriers (a warp that exits without ever
  synchronizing is the benign guard-then-exit idiom and does not
  count).
* **uninit-shared-read** — a shared-memory read with no
  happens-before-ordered prior write: no write to the element in an
  earlier barrier interval by any thread, and none earlier in the
  reading warp's own program order.

Soundness limits are documented in DESIGN.md §10: the analysis is per
dynamic trace (one input, one schedule), element-granular (mixed-width
aliasing of overlapping accesses at different base addresses is not
correlated), and deliberately silent on inter-CTA read/write sharing —
that is the paper's §VII inter-CTA read locality, not a bug.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .._bits import lanes_of
from ..emulator.columnar import (
    _PC_SHIFT,
    KIND_NONE,
    SPACE_CODES,
    decode_value,
)
from ..obs import tracing
from ..obs.metrics import get_registry


class RaceKind:
    """Finding categories (string constants so reports stay JSON-plain).

    The first five are produced by both detector modes; the last two
    only by the predictive happens-before mode
    (:mod:`repro.analysis.predictive`), which sees conflicts the
    barrier-interval baseline is structurally blind to.
    """

    SHARED_RACE = "shared-race"
    GLOBAL_WRITE_CONFLICT = "global-write-conflict"
    DIVERGENT_BARRIER = "divergent-barrier"
    BARRIER_MISMATCH = "barrier-mismatch"
    UNINIT_SHARED_READ = "uninit-shared-read"
    # predictive-mode-only kinds
    ATOMIC_PLAIN_RACE = "atomic-plain-race"
    PREDICTED_GLOBAL_RACE = "predicted-global-race"

    ALL = (SHARED_RACE, GLOBAL_WRITE_CONFLICT, DIVERGENT_BARRIER,
           BARRIER_MISMATCH, UNINIT_SHARED_READ, ATOMIC_PLAIN_RACE,
           PREDICTED_GLOBAL_RACE)


@dataclass
class RaceFinding:
    """One deduplicated detector finding.

    Findings are aggregated by ``(kind, kernel, pc, other_pc)``;
    ``count`` tallies the dynamic occurrences and the positional fields
    (launch/cta/address/lanes/interval) describe the *first* occurrence.
    ``lanes`` holds the involved threads as ``(warp, lane)`` pairs.
    """

    kind: str
    kernel: str
    pc: Optional[int]
    other_pc: Optional[int]
    launch: int
    cta: int
    address: Optional[int]
    lanes: Tuple[Tuple[int, int], ...]
    interval: Optional[int]
    detail: str
    dn_class: Optional[str] = None
    count: int = 1

    def key(self):
        return (self.kind, self.kernel, self.pc, self.other_pc)

    def to_json(self):
        return {
            "kind": self.kind, "kernel": self.kernel,
            "pc": self.pc, "other_pc": self.other_pc,
            "launch": self.launch, "cta": self.cta,
            "address": self.address,
            "lanes": [list(pair) for pair in self.lanes],
            "interval": self.interval, "detail": self.detail,
            "class": self.dn_class, "count": self.count,
        }

    def format(self):
        def hx(v):
            return "-" if v is None else "%#x" % v
        lanes = "/".join("w%d.l%d" % pair for pair in self.lanes) or "-"
        extra = "" if self.interval is None else " interval=%d" % self.interval
        cls = "" if self.dn_class is None else " class=%s" % self.dn_class
        return ("[%s] kernel=%s pc=%s other=%s launch=%d cta=%d addr=%s "
                "lanes=%s%s%s count=%d — %s"
                % (self.kind, self.kernel, hx(self.pc), hx(self.other_pc),
                   self.launch, self.cta, hx(self.address), lanes, extra,
                   cls, self.count, self.detail))


@dataclass
class RaceReport:
    """All findings for one application trace."""

    app: str
    findings: List[RaceFinding] = field(default_factory=list)
    launches: int = 0
    ops_checked: int = 0

    @property
    def clean(self):
        return not self.findings

    def by_kind(self, kind):
        return [f for f in self.findings if f.kind == kind]

    def counts_by_kind(self):
        counts = {}
        for f in self.findings:
            counts[f.kind] = counts.get(f.kind, 0) + f.count
        return counts

    def to_json(self):
        return {
            "app": self.app,
            "launches": self.launches,
            "ops_checked": self.ops_checked,
            "clean": self.clean,
            "findings": [f.to_json() for f in self.findings],
        }

    def format(self):
        head = ("%s: analyzed %d launch(es), %d memory op(s)"
                % (self.app, self.launches, self.ops_checked))
        if self.clean:
            return head + " — clean"
        lines = [head + " — %d finding(s)" % len(self.findings)]
        lines.extend(f.format() for f in self.findings)
        return "\n".join(lines)

    def write_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path


# ---------------------------------------------------------------------------
# trace replay helpers
# ---------------------------------------------------------------------------

_FLOAT_FMT = {2: "<e", 4: "<f", 8: "<d"}


def _value_key(value, dtype):
    """A hashable byte-exact identity for one stored element.

    Two stores agree iff they put the same bytes in memory; comparing
    the packed representation sidesteps ``0.0 == -0.0`` and
    signed/unsigned pattern questions.
    """
    if dtype.is_float:
        return struct.pack(_FLOAT_FMT[dtype.nbytes], value)
    return int(value).to_bytes(dtype.nbytes, "little",
                               signed=dtype.is_signed)


def _elements_per_lane(inst):
    """How many consecutive elements one lane moves (``.v2``/``.v4``)."""
    if inst.is_load:
        return max(1, len(inst.dests))
    if inst.is_store:
        return max(1, len(inst.srcs) - 1)
    return 1


def _dn_class(classifications, kernel_name, pc):
    if not classifications or pc is None:
        return None
    result = classifications.get(kernel_name)
    if result is None:
        return None
    load = result.get(pc)
    return str(load.load_class) if load is not None else None


class _FindingSink:
    """Deduplicates findings by (kind, kernel, pc, other_pc)."""

    def __init__(self, classifications):
        self._by_key: Dict[tuple, RaceFinding] = {}
        self._classifications = classifications

    def add(self, kind, kernel, pc, other_pc, launch, cta, address, lanes,
            interval, detail):
        key = (kind, kernel, pc, other_pc)
        existing = self._by_key.get(key)
        if existing is not None:
            existing.count += 1
            return
        self._by_key[key] = RaceFinding(
            kind=kind, kernel=kernel, pc=pc, other_pc=other_pc,
            launch=launch, cta=cta, address=address, lanes=tuple(lanes),
            interval=interval, detail=detail,
            dn_class=_dn_class(self._classifications, kernel, pc))

    def findings(self):
        order = {kind: i for i, kind in enumerate(RaceKind.ALL)}
        return sorted(self._by_key.values(),
                      key=lambda f: (order[f.kind], f.kernel,
                                     f.pc if f.pc is not None else -1,
                                     f.other_pc if f.other_pc is not None
                                     else -1))


@dataclass
class _Access:
    """One element access inside a CTA, in replay order."""

    __slots__ = ("address", "interval", "warp", "lane", "pc", "kind",
                 "order", "value_key")

    address: int
    interval: int
    warp: int
    lane: int
    pc: int
    kind: str        # "ld" | "st" | "at"
    order: int       # position in the owning warp's op stream
    value_key: object


def _mask_lanes(warp_id, mask, limit=4):
    return tuple((warp_id, lane) for lane in lanes_of(mask)[:limit])


_SHARED_CODE = SPACE_CODES["shared"]
_GLOBAL_CODE = SPACE_CODES["global"]
_KIND_ST = 1


class _WarpWalk:
    """One warp's rows as both detectors see them.

    ``idx`` is each row's instruction index, ``barrier`` flags its
    ``bar.sync`` rows and ``interval_of`` holds its barrier interval
    (the barriers strictly before it); ``astart`` indexes the warp's
    ``lanes``/``addrs`` by row.  ``bars`` and ``last_bar_pc`` feed the
    barrier-mismatch check.  Divergent barriers are reported while
    walking; everything is vectorized over the warp's columns.
    """

    __slots__ = ("warp", "idx", "barrier", "interval_of", "astart",
                 "bars", "last_bar_pc")

    def __init__(self, warp, launch_walk):
        self.warp = warp
        idx = self.idx = warp.pc >> _PC_SHIFT
        barrier = self.barrier = launch_walk.is_barrier[idx]
        self.interval_of = np.cumsum(barrier) - barrier
        self.astart = warp.astart
        bar_rows = np.flatnonzero(barrier)
        self.bars = len(bar_rows)
        self.last_bar_pc = (int(warp.pc[bar_rows[-1]]) if self.bars
                            else None)
        if not self.bars:
            return
        masks = warp.mask
        # exited[r]: the lanes that exited strictly before row r
        exited = np.zeros(len(masks) + 1, dtype=np.uint32)
        np.bitwise_or.accumulate(
            np.where(launch_walk.is_exit[idx], masks, np.uint32(0)),
            out=exited[1:])
        live_at = np.bitwise_or.reduce(masks) & ~exited[bar_rows]
        for interval, (row, mask, live) in enumerate(zip(
                bar_rows.tolist(), masks[bar_rows].tolist(),
                live_at.tolist())):
            if mask != live:
                launch_walk.sink.add(
                    RaceKind.DIVERGENT_BARRIER, launch_walk.kernel,
                    int(warp.pc[row]), None, launch_walk.launch_index,
                    warp.cta_id, None,
                    _mask_lanes(warp.warp_id, live & ~mask), interval,
                    "bar.sync mask %#010x but %d live lane(s) (%#010x) "
                    "bypassed it"
                    % (mask, bin(live & ~mask).count("1"), live))

    def row(self, i):
        """``(pc, interval, lanes, addrs)`` of row ``i``, as Python
        values."""
        warp = self.warp
        lo, hi = int(self.astart[i]), int(self.astart[i + 1])
        return (int(warp.pc[i]), int(self.interval_of[i]),
                warp.lanes[lo:hi].tolist(), warp.addrs[lo:hi].tolist())


class _LaunchWalk:
    """The part of one launch's analysis both detector modes share.

    Holds the per-instruction flags (indexed by ``pc >> _PC_SHIFT``):
    ``is_exit``, ``is_barrier``, ``membar`` and ``elems``, the elements
    one lane moves.  :meth:`ctas` walks every warp once and runs the
    barrier-mismatch and inter-CTA store checks; ``mem_ops`` counts the
    rows that recorded accesses.
    """

    def __init__(self, launch, launch_index, sink):
        self.launch = launch
        self.launch_index = launch_index
        self.sink = sink
        self.kernel = launch.kernel_name
        insts = self.insts = launch.instructions
        self.is_exit = _flags(insts, lambda i: i.is_exit)
        self.is_barrier = _flags(insts, lambda i: i.is_barrier)
        self.membar = _flags(insts, lambda i: i.opcode == "membar")
        self.elems = [_elements_per_lane(inst) for inst in insts]
        self.mem_ops = 0

    def ctas(self):
        """Yield ``(cta_id, walks)`` per CTA in id order, one
        :class:`_WarpWalk` per warp in warp-id order.  Once the caller
        is done with a CTA its barrier counts are checked; after the
        last CTA, the launch's plain global stores."""
        by_cta: Dict[int, list] = {}
        for warp in self.launch.warps:
            by_cta.setdefault(warp.cta_id, []).append(warp)
        stores: List[tuple] = []
        for cta_id, warps in sorted(by_cta.items()):
            walks = [_WarpWalk(warp, self)
                     for warp in sorted(warps, key=lambda w: w.warp_id)]
            for walk in walks:
                self.mem_ops += int((walk.warp.kind != KIND_NONE).sum())
            yield cta_id, walks
            _check_barrier_mismatch(
                self.kernel, self.launch_index, cta_id,
                {w.warp.warp_id: (w.bars, w.last_bar_pc) for w in walks},
                self.sink)
            for walk in walks:
                stores.extend((cta_id, acc)
                              for acc in self._global_stores(walk))
        _check_global_conflicts(self.kernel, self.launch_index, stores,
                                self.sink)

    def _global_stores(self, walk):
        """The warp's plain global stores, one :class:`_Access` per
        element, in row order."""
        warp = walk.warp
        kinds = warp.kind
        rows = np.flatnonzero(((kinds >> 2) == _GLOBAL_CODE)
                              & ((kinds & 3) == _KIND_ST))
        if not len(rows):
            return []
        vstart = warp.vstart
        out = []
        for i in rows.tolist():
            inst_idx = int(walk.idx[i])
            dtype = self.insts[inst_idx].dtype
            width = dtype.nbytes
            elems = self.elems[inst_idx]
            pc, interval, lanes, addrs = walk.row(i)
            bits = warp.vals[int(vstart[i]):int(vstart[i + 1])].tolist()
            for j, (lane, addr) in enumerate(zip(lanes, addrs)):
                for k in range(elems):
                    vidx = j * elems + k
                    vkey = (_value_key(decode_value(bits[vidx], dtype),
                                       dtype)
                            if vidx < len(bits) else None)
                    out.append(_Access(addr + k * width, interval,
                                       warp.warp_id, lane, pc, "st", i,
                                       vkey))
        return out


def _flags(insts, test):
    return np.asarray([test(inst) for inst in insts] or [False],
                      dtype=np.bool_)


def _shared_accesses(walk, launch_walk):
    """The warp's shared-space element accesses, in row order (the
    interval detector's input)."""
    warp = walk.warp
    out = []
    for i in np.flatnonzero((warp.kind >> 2) == _SHARED_CODE).tolist():
        inst_idx = int(walk.idx[i])
        inst = launch_walk.insts[inst_idx]
        kind = ("st" if inst.is_store
                else "at" if inst.is_atomic else "ld")
        width = inst.dtype.nbytes
        elems = launch_walk.elems[inst_idx]
        pc, interval, lanes, addrs = walk.row(i)
        for lane, addr in zip(lanes, addrs):
            for k in range(elems):
                out.append(_Access(addr + k * width, interval,
                                   warp.warp_id, lane, pc, kind, i, None))
    return out


def _check_shared_races(kernel_name, launch_index, cta_id, accesses, sink):
    """Same element + same interval + different threads + >=1 plain
    store, with atomics excluded from conflicting pairs."""
    buckets: Dict[tuple, List[_Access]] = {}
    for acc in accesses:
        buckets.setdefault((acc.address, acc.interval), []).append(acc)
    for (address, interval), accs in buckets.items():
        writers = [a for a in accs if a.kind == "st"]
        if not writers:
            continue
        writer_threads = {(a.warp, a.lane) for a in writers}
        if len(writer_threads) > 1:
            first = writers[0]
            other = next(a for a in writers
                         if (a.warp, a.lane) != (first.warp, first.lane))
            a, b = ((first, other) if (first.order, first.warp)
                    <= (other.order, other.warp) else (other, first))
            sink.add(RaceKind.SHARED_RACE, kernel_name, b.pc, a.pc,
                     launch_index, cta_id, address,
                     ((a.warp, a.lane), (b.warp, b.lane)), interval,
                     "write/write on shared element with no intervening "
                     "barrier")
            continue
        writer = writers[0]
        wt = (writer.warp, writer.lane)
        reader = next((a for a in accs
                       if a.kind == "ld" and (a.warp, a.lane) != wt), None)
        if reader is not None:
            sink.add(RaceKind.SHARED_RACE, kernel_name, reader.pc, writer.pc,
                     launch_index, cta_id, address,
                     (wt, (reader.warp, reader.lane)), interval,
                     "read/write on shared element with no intervening "
                     "barrier")


def _check_uninit_reads(kernel_name, launch_index, cta_id, accesses, sink):
    """A read with no happens-before-ordered prior write: none in an
    earlier interval by any thread, none earlier in program order by
    the reading warp itself.  Atomics count as initializing writes."""
    first_write_interval: Dict[int, int] = {}
    own_write_order: Dict[tuple, int] = {}
    for acc in accesses:
        if acc.kind == "ld":
            continue
        prev = first_write_interval.get(acc.address)
        if prev is None or acc.interval < prev:
            first_write_interval[acc.address] = acc.interval
        key = (acc.warp, acc.address)
        prev_own = own_write_order.get(key)
        if prev_own is None or acc.order < prev_own:
            own_write_order[key] = acc.order
    for acc in accesses:
        if acc.kind != "ld":
            continue
        cross = first_write_interval.get(acc.address)
        if cross is not None and cross < acc.interval:
            continue
        own = own_write_order.get((acc.warp, acc.address))
        if own is not None and own < acc.order:
            continue
        sink.add(RaceKind.UNINIT_SHARED_READ, kernel_name, acc.pc, None,
                 launch_index, cta_id, acc.address,
                 ((acc.warp, acc.lane),), acc.interval,
                 "shared element read before any happens-before-ordered "
                 "write")


def _check_barrier_mismatch(kernel_name, launch_index, cta_id, bar_counts,
                            sink):
    """Warps that both synchronize must synchronize the same number of
    times; a warp with zero barriers (guard-then-exit) is exempt."""
    nonzero = {w: (n, pc) for w, (n, pc) in bar_counts.items() if n > 0}
    if len({n for n, _pc in nonzero.values()}) <= 1:
        return
    items = sorted(nonzero.items(), key=lambda kv: (-kv[1][0], kv[0]))
    (w_hi, (n_hi, pc_hi)), (w_lo, (n_lo, _)) = items[0], items[-1]
    sink.add(RaceKind.BARRIER_MISMATCH, kernel_name, pc_hi, None,
             launch_index, cta_id, None, ((w_hi, 0), (w_lo, 0)), None,
             "warp %d executed %d barrier(s) but warp %d executed %d"
             % (w_hi, n_hi, w_lo, n_lo))


def _check_global_conflicts(kernel_name, launch_index, stores, sink):
    """Differing-value plain stores to one element from different CTAs.

    ``stores`` is ``[(cta_id, _Access), ...]`` across the whole launch;
    CTAs never synchronize, so interval numbers are irrelevant here.
    """
    # per element: the first store seen for each distinct value; a new
    # store conflicts with any prior *different-value* store from a
    # *different* CTA (distinct values per element are few in practice)
    by_value: Dict[int, Dict[object, tuple]] = {}
    for cta_id, acc in stores:
        values = by_value.setdefault(acc.address, {})
        for vkey, (seen_cta, seen_acc) in values.items():
            if vkey == acc.value_key or seen_cta == cta_id:
                continue
            sink.add(RaceKind.GLOBAL_WRITE_CONFLICT, kernel_name, acc.pc,
                     seen_acc.pc, launch_index,
                     cta_id, acc.address,
                     ((seen_acc.warp, seen_acc.lane), (acc.warp, acc.lane)),
                     None,
                     "CTAs %d and %d store different values (%s vs %s) to "
                     "one global element"
                     % (seen_cta, cta_id, _fmt_value(seen_acc.value_key),
                        _fmt_value(acc.value_key)))
            break
        if acc.value_key not in values:
            values[acc.value_key] = (cta_id, acc)


def _fmt_value(value_key):
    if value_key is None:
        return "?"
    return "0x" + bytes(reversed(value_key)).hex()


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def analyze_launch(launch, launch_index, sink):
    """Analyze one :class:`~repro.emulator.columnar.ColumnarLaunchTrace`;
    returns ops examined."""
    walk = _LaunchWalk(launch, launch_index, sink)
    for cta_id, warps in walk.ctas():
        accesses: List[_Access] = []
        for warp in warps:
            accesses.extend(_shared_accesses(warp, walk))
        _check_shared_races(walk.kernel, launch_index, cta_id, accesses,
                            sink)
        _check_uninit_reads(walk.kernel, launch_index, cta_id, accesses,
                            sink)
    return walk.mem_ops


def analyze_trace(trace, classifications=None, app=None, mode="interval"):
    """Run every check over an :class:`ApplicationTrace`.

    ``classifications`` is the per-kernel
    :class:`~repro.core.classifier.ClassificationResult` map from a
    :class:`WorkloadRun`; when given, findings at classified global-load
    PCs carry the paper's D/N class.

    ``mode`` selects the detector: ``"interval"`` is the barrier-interval
    baseline implemented here; ``"predictive"`` dispatches to the
    streaming happens-before detector
    (:func:`repro.analysis.predictive.analyze_trace_predictive`), which
    models atomics and memory fences as synchronization and predicts
    races the observed schedule serialized.
    """
    if mode == "predictive":
        from .predictive import analyze_trace_predictive

        return analyze_trace_predictive(trace, classifications, app=app)
    if mode != "interval":
        raise ValueError("unknown race-detector mode %r "
                         "(choices: interval, predictive)" % (mode,))
    name = app or getattr(trace, "name", "?")
    sink = _FindingSink(classifications)
    ops_checked = 0
    with tracing.span("races", app=name, launches=len(trace)):
        for index, launch in enumerate(trace):
            with tracing.span("races.launch", kernel=launch.kernel_name):
                ops_checked += analyze_launch(launch, index, sink)
    report = RaceReport(app=name, findings=sink.findings(),
                        launches=len(trace), ops_checked=ops_checked)
    registry = get_registry()
    registry.counter(
        "analysis.races.ops_checked",
        "memory trace ops examined by the race detector").inc(
        ops_checked, app=name)
    registry.counter(
        "analysis.races.launches",
        "kernel launches analyzed by the race detector").inc(
        report.launches, app=name)
    for kind, count in sorted(report.counts_by_kind().items()):
        registry.counter(
            "analysis.races.findings",
            "dynamic race-detector findings by kind").inc(
            count, app=name, kind=kind)
    return report


def analyze_workload(name, scale=0.25, seed=7, engine=None,
                     mode="interval"):
    """Emulate one registered workload and analyze its trace."""
    from ..workloads import get_workload

    run = get_workload(name, scale=scale, seed=seed).run(
        verify=False, engine=engine)
    return analyze_trace(run.trace, run.classifications, app=name,
                         mode=mode)
