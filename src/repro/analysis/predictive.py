"""Predictive happens-before race detection over columnar traces.

The barrier-interval detector (:mod:`repro.analysis.races`) treats a
barrier interval as one unordered bag of accesses: it cannot tell an
atomics-protected counter from an unprotected one, and it never looks
at conflicts the observed schedule happened to serialize.  This module
implements the *predictive* mode: a streaming happens-before detector
that models the synchronization the PTX subset actually provides and
asks whether a conflicting pair is ordered under **any** schedule the
trace permits, not just the one the deterministic emulator replayed.

Ordering model (DESIGN.md §14):

* A *thread* is a ``(warp, lane)`` pair.  Program order within one
  thread is happens-before.
* ``bar.sync`` is a total barrier over the CTA: everything before
  barrier *k* happens-before everything after it.  This reproduces the
  interval baseline's structure, so every interval-mode finding has a
  predictive counterpart.
* ``atom.*``/``red.*`` operations on one location never race with each
  other — the hardware serializes them.
* ``membar`` + atomics build release/acquire edges: a warp's fence
  publishes its pre-fence accesses; a subsequent atomic to location *L*
  releases that prefix into *L*'s clock; another warp's atomic to *L*
  acquires it; that warp's next ``membar`` makes the acquired prefix
  order its later accesses.  Flag-based producer/consumer handoff
  (``st data; membar; atom flag`` → ``atom flag; membar; ld data``)
  therefore stops being a false positive.

The detector consumes each warp's trace chunk-by-chunk via
``iter_chunks`` — it never materializes the legacy record view — and
keeps per-element state bounded by (element × interval × warp), so it
runs inside the ``REPRO_MAX_RSS_MB`` budget on traces whose record
form would not fit.

Soundness limits: warps are replayed in warp-id order (the emulator's
deterministic CTA schedule), so release/acquire edges only flow from
lower to higher warp ids — the only direction a completed trace can
witness; lane-to-lane ordering inside one warp below barrier
granularity is not modeled (a warp-internal ``membar`` does not order
its own lanes); and like the baseline the analysis is per dynamic
trace and element-granular (DESIGN.md §10).
"""

from __future__ import annotations

from typing import Dict, List

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
from ..resilience.guards import check_memory_budget
from .races import (
    RaceKind,
    RaceReport,
    _check_barrier_mismatch,
    _elements_per_lane,
    _FindingSink,
    _fmt_value,
    _value_key,
)

_SHARED = SPACE_CODES["shared"]
_GLOBAL = SPACE_CODES["global"]
_KIND_LD, _KIND_ST, _KIND_AT = 0, 1, 2


class _Elem:
    """Per-(space, element, interval) access state for one CTA.

    For each category (plain writes, plain reads, atomics) the dicts
    map ``warp -> (order, pc, lane, raw_bits)`` for the *latest* access;
    the ``*_alt`` dicts keep the latest access by a *different lane*
    than the main entry, so a same-warp cross-lane conflict survives a
    same-lane overwrite.  One representative per warp is enough: the
    latest entry has the largest order, and suppression bounds are
    exclusive upper bounds on order.
    """

    __slots__ = ("writes", "w_alt", "reads", "r_alt", "atoms", "a_alt")

    def __init__(self):
        self.writes: Dict[int, tuple] = {}
        self.w_alt: Dict[int, tuple] = {}
        self.reads: Dict[int, tuple] = {}
        self.r_alt: Dict[int, tuple] = {}
        self.atoms: Dict[int, tuple] = {}
        self.a_alt: Dict[int, tuple] = {}


def _update(latest, alt, warp, entry):
    prev = latest.get(warp)
    if prev is not None and prev[2] != entry[2]:
        alt[warp] = prev
    latest[warp] = entry


class _CtaState:
    """Accumulated per-CTA detector state (cleared between CTAs)."""

    __slots__ = ("cta_id", "elems", "locks", "first_write", "own_write",
                 "uninit", "bar_counts")

    def __init__(self, cta_id):
        self.cta_id = cta_id
        # (space, addr, interval) -> _Elem
        self.elems: Dict[tuple, _Elem] = {}
        # (space, addr, interval) -> {warp: exclusive released order bound}
        self.locks: Dict[tuple, Dict[int, int]] = {}
        self.first_write: Dict[int, int] = {}     # shared addr -> interval
        self.own_write: Dict[tuple, int] = {}     # (warp, addr) -> order
        self.uninit: List[tuple] = []             # read candidates
        self.bar_counts: Dict[int, tuple] = {}    # warp -> (bars, last pc)

    def note_write(self, addr, interval, warp, order):
        """A shared store/atomic initializes its element."""
        prev = self.first_write.get(addr)
        if prev is None or interval < prev:
            self.first_write[addr] = interval
        key = (warp, addr)
        if key not in self.own_write:
            self.own_write[key] = order


class _LaunchScan:
    """Streams one launch through the predictive detector."""

    def __init__(self, launch, launch_index, sink):
        self.launch = launch
        self.launch_index = launch_index
        self.sink = sink
        self.kernel = launch.kernel_name
        insts = launch.instructions
        self.insts = insts
        self.is_exit = np.asarray(
            [i.is_exit for i in insts] or [False], dtype=np.bool_)
        self.is_bar = np.asarray(
            [i.is_barrier for i in insts] or [False], dtype=np.bool_)
        self.is_fence = np.asarray(
            [i.opcode == "membar" for i in insts] or [False], dtype=np.bool_)
        self.vec = np.asarray(
            [max(i.vector, 1) for i in insts] or [1], dtype=np.int64)
        # global element -> {value_key: (cta, (warp, lane, vkey, pc))}
        self.gvalues: Dict[int, dict] = {}
        self.mem_ops = 0
        self.sync_edges = 0
        self.suppressed = 0

    # -- conflict enumeration ---------------------------------------------

    def _unordered(self, latest, alt, warp, lane, eff):
        """Prior accesses with no happens-before edge to ``(warp, lane)``.

        Cross-warp entries are ordered iff their order is below the
        acquiring warp's effective clock for that producer; same-warp
        entries are ordered iff they are by the same lane (program
        order) — a warp's own fences do not order its lanes against
        each other, matching the interval baseline.
        """
        out = []
        for w, e in latest.items():
            if w == warp:
                continue
            if e[0] < eff.get(w, 0):
                self.suppressed += 1
                continue
            out.append((w, e))
        own = latest.get(warp)
        if own is not None and own[2] == lane:
            own = alt.get(warp)
        if own is not None and own[2] != lane:
            out.append((warp, own))
        return out

    # -- finding emitters --------------------------------------------------

    def _report_ww(self, cta, prev_warp, prev, warp, cur, space, addr,
                   interval, dtype):
        # primary = the later access under the interval detector's
        # (order, warp) pair ordering, so shared WW attribution agrees
        if (cur[0], warp) >= (prev[0], prev_warp):
            first, fw, second, sw = prev, prev_warp, cur, warp
        else:
            first, fw, second, sw = cur, warp, prev, prev_warp
        if space == _SHARED:
            kind = RaceKind.SHARED_RACE
            detail = ("write/write on shared element with no intervening "
                      "barrier")
        else:
            kind = RaceKind.PREDICTED_GLOBAL_RACE
            detail = ("predicted write/write race on a global element in "
                      "one barrier interval (values %s vs %s); the "
                      "deterministic replay serialized it"
                      % (_fmt_bits(first[3], dtype),
                         _fmt_bits(second[3], dtype)))
        self.sink.add(kind, self.kernel, second[1], first[1],
                      self.launch_index, cta.cta_id, addr,
                      ((fw, first[2]), (sw, second[2])), interval, detail)

    def _report_rw(self, cta, reader_warp, reader, writer_warp, writer,
                   space, addr, interval):
        if space == _SHARED:
            kind = RaceKind.SHARED_RACE
            detail = ("read/write on shared element with no intervening "
                      "barrier")
        else:
            kind = RaceKind.PREDICTED_GLOBAL_RACE
            detail = ("predicted read/write race on a global element in "
                      "one barrier interval; the deterministic replay "
                      "serialized it")
        self.sink.add(kind, self.kernel, reader[1], writer[1],
                      self.launch_index, cta.cta_id, addr,
                      ((writer_warp, writer[2]), (reader_warp, reader[2])),
                      interval, detail)

    def _report_mixed(self, cta, plain_warp, plain, atom_warp, atom,
                      space, addr, interval):
        space_name = "shared" if space == _SHARED else "global"
        self.sink.add(RaceKind.ATOMIC_PLAIN_RACE, self.kernel,
                      plain[1], atom[1], self.launch_index, cta.cta_id,
                      addr, ((plain_warp, plain[2]), (atom_warp, atom[2])),
                      interval,
                      "plain access races an atomic update to one %s "
                      "element (atomics only order against other atomics)"
                      % space_name)

    def _intercta_store(self, cta_id, addr, raw, dtype, pc, warp, lane):
        """The interval detector's differing-value inter-CTA check, fed
        store-by-store in the same replay order."""
        vkey = (_value_key(decode_value(raw, dtype), dtype)
                if raw is not None else None)
        values = self.gvalues.setdefault(addr, {})
        for seen_vkey, (seen_cta, seen) in values.items():
            if seen_vkey == vkey or seen_cta == cta_id:
                continue
            self.sink.add(
                RaceKind.GLOBAL_WRITE_CONFLICT, self.kernel, pc, seen[3],
                self.launch_index, cta_id, addr,
                ((seen[0], seen[1]), (warp, lane)), None,
                "CTAs %d and %d store different values (%s vs %s) to "
                "one global element"
                % (seen_cta, cta_id, _fmt_value(seen_vkey),
                   _fmt_value(vkey)))
            break
        if vkey not in values:
            values[vkey] = (cta_id, (warp, lane, vkey, pc))

    # -- per-warp streaming ------------------------------------------------

    def _scan_warp(self, warp, cta):
        u = warp.warp_id
        live0 = 0
        for chunk in warp.iter_chunks():
            if len(chunk[1]):
                live0 |= int(np.bitwise_or.reduce(chunk[1]))
        live0 = np.uint32(live0)
        # vector clocks: producer warp -> exclusive released order bound
        pending: Dict[int, int] = {}   # acquired, not yet fenced
        eff: Dict[int, int] = {}       # fenced — usable for suppression
        own_release = 0                # orders < this publish at release
        order_base = 0
        interval_base = 0
        carry_exited = np.uint32(0)
        bars = 0
        last_bar_pc = None
        sink = self.sink
        for pcs, masks, kinds, acounts, lanes, addrs, vals in \
                warp.iter_chunks():
            check_memory_budget("predictive race analysis")
            n = len(pcs)
            if not n:
                continue
            idx = pcs >> _PC_SHIFT
            row_exit = self.is_exit[idx]
            row_bar = self.is_bar[idx]
            row_fence = self.is_fence[idx]
            exited = np.where(row_exit, masks, np.uint32(0))
            np.bitwise_or.accumulate(exited, out=exited)
            exited_before = np.empty_like(exited)
            exited_before[0] = carry_exited
            exited_before[1:] = exited[:-1] | carry_exited
            carry_exited = carry_exited | exited[-1]
            live_at = live0 & ~exited_before
            interval_of = interval_base + np.cumsum(row_bar) - row_bar
            mem = kinds != KIND_NONE
            self.mem_ops += int(mem.sum())
            space_of = kinds >> 2
            track = mem & ((space_of == _SHARED) | (space_of == _GLOBAL))
            rows = np.flatnonzero(row_bar | row_fence | track)
            if len(rows):
                astart = np.zeros(n + 1, dtype=np.int64)
                np.cumsum(acounts, out=astart[1:])
                vcounts = np.where((kinds & 3) == _KIND_ST,
                                   acounts.astype(np.int64)
                                   * self.vec[idx], 0)
                vstart = np.zeros(n + 1, dtype=np.int64)
                np.cumsum(vcounts, out=vstart[1:])
            for i in rows.tolist():
                o = order_base + i
                if row_bar[i]:
                    bars += 1
                    pc = int(pcs[i])
                    last_bar_pc = pc
                    mask = int(masks[i])
                    live = int(live_at[i])
                    if mask != live:
                        sink.add(
                            RaceKind.DIVERGENT_BARRIER, self.kernel, pc,
                            None, self.launch_index, cta.cta_id, None,
                            _mask_lanes(u, live & ~mask),
                            int(interval_of[i]),
                            "bar.sync mask %#010x but %d live lane(s) "
                            "(%#010x) bypassed it"
                            % (mask, bin(live & ~mask).count("1"), live))
                    # the barrier orders everything before it for every
                    # thread; conflicts never span intervals, so the
                    # fine-grained clocks reset
                    pending.clear()
                    eff.clear()
                    own_release = 0
                    continue
                if row_fence[i]:
                    for w, b in pending.items():
                        if eff.get(w, 0) < b:
                            eff[w] = b
                    own_release = o
                    continue
                k = int(kinds[i])
                kc = k & 3
                sp = k >> 2
                inst = self.insts[int(idx[i])]
                dtype = inst.dtype
                width = dtype.nbytes
                epl = _elements_per_lane(inst)
                interval = int(interval_of[i])
                pc = int(pcs[i])
                lo, hi = int(astart[i]), int(astart[i + 1])
                row_lanes = lanes[lo:hi].tolist()
                row_addrs = addrs[lo:hi].tolist()
                if kc == _KIND_AT:
                    self._atomic_row(cta, u, o, pc, sp, interval,
                                     row_lanes, row_addrs, pending, eff,
                                     own_release)
                elif kc == _KIND_ST:
                    bits = vals[int(vstart[i]):int(vstart[i + 1])].tolist()
                    self._store_row(cta, u, o, pc, sp, interval, width,
                                    epl, row_lanes, row_addrs, bits,
                                    dtype, eff)
                else:
                    self._load_row(cta, u, o, pc, sp, interval, width,
                                   epl, row_lanes, row_addrs, eff)
            order_base += n
            interval_base += int(row_bar.sum())
        cta.bar_counts[u] = (bars, last_bar_pc)

    # -- row handlers -------------------------------------------------------

    def _atomic_row(self, cta, u, o, pc, sp, interval, row_lanes,
                    row_addrs, pending, eff, own_release):
        for lane, addr in zip(row_lanes, row_addrs):
            ekey = (sp, addr, interval)
            lock = cta.locks.get(ekey)
            if lock:  # acquire the location's release clock
                for w, b in lock.items():
                    if w != u and pending.get(w, 0) < b:
                        pending[w] = b
                        self.sync_edges += 1
            elem = cta.elems.get(ekey)
            if elem is None:
                elem = cta.elems[ekey] = _Elem()
            else:  # an atomic races any unordered plain access
                cur = (o, pc, lane, None)
                for w, e in self._unordered(elem.writes, elem.w_alt, u,
                                            lane, eff):
                    self._report_mixed(cta, w, e, u, cur, sp, addr,
                                       interval)
                for w, e in self._unordered(elem.reads, elem.r_alt, u,
                                            lane, eff):
                    self._report_mixed(cta, w, e, u, cur, sp, addr,
                                       interval)
            # release: publish acquired clocks plus the own pre-fence
            # prefix into the location
            lock = cta.locks.setdefault(ekey, {})
            if own_release and lock.get(u, 0) < own_release:
                lock[u] = own_release
            for w, b in pending.items():
                if lock.get(w, 0) < b:
                    lock[w] = b
            _update(elem.atoms, elem.a_alt, u, (o, pc, lane, None))
            if sp == _SHARED:
                cta.note_write(addr, interval, u, o)

    def _store_row(self, cta, u, o, pc, sp, interval, width, epl,
                   row_lanes, row_addrs, bits, dtype, eff):
        nbits = len(bits)
        for j, (lane, addr) in enumerate(zip(row_lanes, row_addrs)):
            for k in range(epl):
                ea = addr + k * width
                vidx = j * epl + k
                raw = bits[vidx] if vidx < nbits else None
                cur = (o, pc, lane, raw)
                ekey = (sp, ea, interval)
                elem = cta.elems.get(ekey)
                if elem is None:
                    elem = cta.elems[ekey] = _Elem()
                else:
                    for w, e in self._unordered(elem.writes, elem.w_alt,
                                                u, lane, eff):
                        if sp == _GLOBAL and e[3] == raw:
                            continue  # benign same-value idiom
                        self._report_ww(cta, w, e, u, cur, sp, ea,
                                        interval, dtype)
                    for w, e in self._unordered(elem.reads, elem.r_alt,
                                                u, lane, eff):
                        self._report_rw(cta, w, e, u, cur, sp, ea,
                                        interval)
                    for w, e in self._unordered(elem.atoms, elem.a_alt,
                                                u, lane, eff):
                        self._report_mixed(cta, u, cur, w, e, sp, ea,
                                           interval)
                _update(elem.writes, elem.w_alt, u, cur)
                if sp == _SHARED:
                    cta.note_write(ea, interval, u, o)
                else:
                    self._intercta_store(cta.cta_id, ea, raw, dtype, pc,
                                         u, lane)

    def _load_row(self, cta, u, o, pc, sp, interval, width, epl,
                  row_lanes, row_addrs, eff):
        for lane, addr in zip(row_lanes, row_addrs):
            for k in range(epl):
                ea = addr + k * width
                cur = (o, pc, lane, None)
                ekey = (sp, ea, interval)
                elem = cta.elems.get(ekey)
                if elem is None:
                    elem = cta.elems[ekey] = _Elem()
                else:
                    for w, e in self._unordered(elem.writes, elem.w_alt,
                                                u, lane, eff):
                        self._report_rw(cta, u, cur, w, e, sp, ea,
                                        interval)
                    for w, e in self._unordered(elem.atoms, elem.a_alt,
                                                u, lane, eff):
                        self._report_mixed(cta, u, cur, w, e, sp, ea,
                                           interval)
                _update(elem.reads, elem.r_alt, u, cur)
                if sp == _SHARED:
                    cross = cta.first_write.get(ea)
                    if cross is not None and cross < interval:
                        continue
                    own = cta.own_write.get((u, ea))
                    if own is not None and own < o:
                        continue
                    if self._hb_initialized(elem, u, eff):
                        continue
                    cta.uninit.append((ea, interval, u, o, pc, lane))

    @staticmethod
    def _hb_initialized(elem, warp, eff):
        """A same-interval write by another warp initializes the element
        when a release/acquire chain orders it before the reader."""
        for writes in (elem.writes, elem.atoms):
            for w, e in writes.items():
                if w != warp and e[0] < eff.get(w, 0):
                    return True
        return False

    # -- launch driver -------------------------------------------------------

    def run(self):
        by_cta: Dict[int, list] = {}
        for warp in self.launch.warps:
            by_cta.setdefault(warp.cta_id, []).append(warp)
        for cta_id, warps in sorted(by_cta.items()):
            cta = _CtaState(cta_id)
            for warp in sorted(warps, key=lambda w: w.warp_id):
                self._scan_warp(warp, cta)
            _check_barrier_mismatch(self.kernel, self.launch_index,
                                    cta_id, cta.bar_counts, self.sink)
            # confirm uninit-read candidates against the CTA-complete
            # first-write map (a later warp can initialize earlier
            # intervals than the reader saw mid-stream)
            for ea, interval, w, o, pc, lane in cta.uninit:
                cross = cta.first_write.get(ea)
                if cross is not None and cross < interval:
                    continue
                self.sink.add(
                    RaceKind.UNINIT_SHARED_READ, self.kernel, pc, None,
                    self.launch_index, cta_id, ea, ((w, lane),), interval,
                    "shared element read before any happens-before-"
                    "ordered write")


def _mask_lanes(warp_id, mask, limit=4):
    return tuple((warp_id, lane) for lane in lanes_of(mask)[:limit])


def _fmt_bits(raw, dtype):
    if raw is None:
        return "?"
    return _fmt_value(_value_key(decode_value(raw, dtype), dtype))


def analyze_trace_predictive(trace, classifications=None, app=None):
    """Predictive-mode counterpart of
    :func:`repro.analysis.races.analyze_trace`.

    Returns the same :class:`RaceReport` shape; publishes its telemetry
    under ``races.predictive.*``.
    """
    name = app or getattr(trace, "name", "?")
    sink = _FindingSink(classifications)
    ops_checked = 0
    sync_edges = 0
    suppressed = 0
    with tracing.span("races.predictive", app=name, launches=len(trace)):
        for index, launch in enumerate(trace):
            with tracing.span("races.predictive.launch",
                              kernel=launch.kernel_name):
                scan = _LaunchScan(launch, index, sink)
                scan.run()
                ops_checked += scan.mem_ops
                sync_edges += scan.sync_edges
                suppressed += scan.suppressed
    report = RaceReport(app=name, findings=sink.findings(),
                        launches=len(trace), ops_checked=ops_checked)
    registry = get_registry()
    registry.counter(
        "races.predictive.ops_checked",
        "memory trace ops examined by the predictive race detector").inc(
        ops_checked, app=name)
    registry.counter(
        "races.predictive.launches",
        "kernel launches analyzed by the predictive race detector").inc(
        report.launches, app=name)
    registry.counter(
        "races.predictive.sync_edges",
        "release/acquire edges built from atomics and fences").inc(
        sync_edges, app=name)
    registry.counter(
        "races.predictive.suppressed",
        "conflicting pairs ordered away by synchronization edges").inc(
        suppressed, app=name)
    for kind, count in sorted(report.counts_by_kind().items()):
        registry.counter(
            "races.predictive.findings",
            "predictive race-detector findings by kind").inc(
            count, app=name, kind=kind)
    return report
