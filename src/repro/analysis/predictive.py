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

The detector reads each warp's rows straight from the launch columns
through the walk it shares with the baseline
(:class:`~repro.analysis.races._LaunchWalk`: barrier intervals, live
masks, divergent and mismatched barriers, inter-CTA store conflicts).
It never materializes the legacy record view, keeps per-element state
bounded by (element × interval × warp), and checks the
``REPRO_MAX_RSS_MB`` budget once per warp.

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

from ..emulator.columnar import SPACE_CODES, decode_value
from ..obs import tracing
from ..obs.metrics import get_registry
from ..resilience.guards import check_memory_budget
from .races import (
    RaceKind,
    RaceReport,
    _FindingSink,
    _fmt_value,
    _LaunchWalk,
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
                 "uninit")

    def __init__(self, cta_id):
        self.cta_id = cta_id
        # (space, addr, interval) -> _Elem
        self.elems: Dict[tuple, _Elem] = {}
        # (space, addr, interval) -> {warp: exclusive released order bound}
        self.locks: Dict[tuple, Dict[int, int]] = {}
        self.first_write: Dict[int, int] = {}     # shared addr -> interval
        self.own_write: Dict[tuple, int] = {}     # (warp, addr) -> order
        self.uninit: List[tuple] = []             # read candidates

    def note_write(self, addr, interval, warp, order):
        """A shared store/atomic initializes its element."""
        prev = self.first_write.get(addr)
        if prev is None or interval < prev:
            self.first_write[addr] = interval
        key = (warp, addr)
        if key not in self.own_write:
            self.own_write[key] = order


class _LaunchScan(_LaunchWalk):
    """Runs one launch through the predictive detector."""

    def __init__(self, launch, launch_index, sink):
        super().__init__(launch, launch_index, sink)
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

    # -- per-warp scan -----------------------------------------------------

    def _scan_warp(self, walk, cta):
        check_memory_budget("predictive race analysis")
        warp = walk.warp
        u = warp.warp_id
        kinds = warp.kind
        fence = self.membar[walk.idx]
        space_of = kinds >> 2  # KIND_NONE lands at 0x3f, outside every code
        track = (space_of == _SHARED) | (space_of == _GLOBAL)
        rows = np.flatnonzero(walk.barrier | fence | track)
        if not len(rows):
            return
        vstart = warp.vstart
        # vector clocks: producer warp -> exclusive released order bound
        pending: Dict[int, int] = {}   # acquired, not yet fenced
        eff: Dict[int, int] = {}       # fenced — usable for suppression
        own_release = 0                # orders < this publish at release
        for i in rows.tolist():
            if walk.barrier[i]:
                # the barrier orders everything before it for every
                # thread; conflicts never span intervals, so the
                # fine-grained clocks reset
                pending.clear()
                eff.clear()
                own_release = 0
                continue
            if fence[i]:
                for w, b in pending.items():
                    if eff.get(w, 0) < b:
                        eff[w] = b
                own_release = i
                continue
            k = int(kinds[i])
            kc = k & 3
            sp = k >> 2
            inst_idx = int(walk.idx[i])
            dtype = self.insts[inst_idx].dtype
            width = dtype.nbytes
            epl = self.elems[inst_idx]
            pc, interval, row_lanes, row_addrs = walk.row(i)
            if kc == _KIND_AT:
                self._atomic_row(cta, u, i, pc, sp, interval,
                                 row_lanes, row_addrs, pending, eff,
                                 own_release)
            elif kc == _KIND_ST:
                bits = warp.vals[int(vstart[i]):int(vstart[i + 1])].tolist()
                self._store_row(cta, u, i, pc, sp, interval, width,
                                epl, row_lanes, row_addrs, bits, dtype, eff)
            else:
                self._load_row(cta, u, i, pc, sp, interval, width,
                               epl, row_lanes, row_addrs, eff)

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
        for cta_id, walks in self.ctas():
            cta = _CtaState(cta_id)
            for walk in walks:
                self._scan_warp(walk, cta)
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
