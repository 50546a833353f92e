"""The SIMT core (SM) timing model.

Replays warp traces produced by the functional emulator through a
cycle-level model of one streaming multiprocessor:

* a loose round-robin (or greedy-then-oldest) warp scheduler issuing up
  to ``issue_width`` instructions per cycle, gated by a per-warp
  scoreboard,
* SP / SFU pipelines with initiation intervals and result latencies
  (their first-pipeline-stage occupancy is Figure 4's busy metric),
* an LD/ST unit with an in-order memory-instruction queue; the head
  instruction presents one coalesced request per cycle to the L1, and a
  request that suffers a reservation failure retries — those retry cycles
  are exactly the wasted L1 cycles of Figure 3.  Each op's requests,
  lane count and shared-bank port cycles come from the launch's
  :class:`~repro.sim.coalescer.MemoryPlan`, one pass over the launch;
  a warp walks its plan rows in trace order, the order it issues them,
* a private L1 data cache (tags + MSHRs, write-through / write-evict),
* CTA slots with ``bar.sync`` barrier tracking.

One tick is one pass of :meth:`SMCore.cycle`: it pops the due events
(an SP/SFU write-back is cleared inline), presents the LD/ST head to
the L1 or spends the free port on a prefetch, issues, and accounts the
cycle.  What the issue passes of a tick share is read once per tick:
whether the SP and the SFU are busy (an issue to that pipe makes it
so), the LD/ST queue's room (a memory issue takes one slot), the issue
width, the event heap and the entry table.

The issue stage works on integers.  Each kernel is decoded once into an
:class:`IssueTable`: per instruction, its issue kind and its register
hazards (reads and writes) and writes as bitmasks, indexed by raw pc
so that no tick shifts a pc.  Each launch resolves, once for all SMs,
what issuing each memory pc needs (:func:`memory_facts`): its fixed
latency or the L1 path, its load/store/atomic flags, its load class
and whether it trains the prefetcher (``.global`` loads only).  A
warp's scoreboard is one int mask of pending destination registers,
and write-back clears an instruction's write mask from it.  The
scheduler keeps int masks over :attr:`SMCore.warps`.  The *candidates*
are the live warps neither at a barrier nor waiting on the scoreboard,
and every candidate is scoreboard-ready: hazards are marked eagerly,
when a warp's next instruction becomes current (after it issues, or
when a barrier releases it), and the write-back that clears the hazard
makes the warp a candidate again.  A warp at a barrier is marked only
at its release: a write-back would otherwise hand it back to the
scheduler.  One mask per issue kind holds the live warps whose current
instruction is of that kind, so an issue pass takes the candidates,
drops the SP or SFU warps while that pipe is busy and the memory warps
while the LD/ST queue is full, and issues the first warp of what is
left in scheduler order: one bit pick per issued instruction, no scan.
A warp may issue again in the same tick.  After a tick that issued
nothing, the candidates left (all blocked on a unit), the
scoreboard-waiting warps and the live warps give that cycle's stall
reason.

The GPU ticks an SM only when it is due (:attr:`SMCore.wake_at`).  After
a cycle in which the SM popped no event, issued nothing, ran no prefetch
and its LD/ST head (if any) failed its L1 reservation, every following
cycle would repeat that one until something external changes, so the SM
sleeps: it records the stall reason and the retrying head's outcome once
and adds the slept cycles to the statistics in bulk when it next ticks.

Global stores and atomics bypass L1 (Fermi behaviour): they only need an
interconnect credit, so their only reservation-failure mode is
``rsrv_fail_icnt``.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from itertools import count
from math import inf
from typing import Dict, List, Optional, Tuple

from ..emulator.columnar import KIND_NONE
from ..ptx.isa import PC_STRIDE, Space, Unit
from .cache import Cache, Outcome
from .coalescer import MemoryPlan
from .request import MemRequest


class InflightMemInst:
    """A memory warp-instruction from LD/ST issue to last data writeback."""

    __slots__ = ("warp", "dests", "pending", "outstanding",
                 "n_requests", "t_issue", "t_first_accept", "t_last_accept",
                 "l2_in_min", "l2_in_max", "back_min", "back_max",
                 "load_class", "pc", "kernel_name", "is_load", "is_store",
                 "fixed_latency", "port_cycles")

    def __init__(self, warp, dests, pc, kernel_name, load_class,
                 is_load, is_store, t_issue, fixed_latency=None):
        self.warp = warp
        self.dests = dests  # bitmask of the registers written back
        self.pending: List[MemRequest] = []
        self.outstanding = 0
        self.n_requests = 0
        self.t_issue = t_issue
        self.t_first_accept = -1
        self.t_last_accept = -1
        # running extrema over this instruction's requests, maintained
        # at the stamp sites so completion is O(1), not O(requests)
        self.l2_in_min = -1
        self.l2_in_max = -1
        self.back_min = -1
        self.back_max = -1
        self.load_class = load_class
        self.pc = pc
        self.kernel_name = kernel_name
        self.is_load = is_load
        self.is_store = is_store
        self.fixed_latency = fixed_latency  # shared/const/empty accesses
        #: LD/ST port cycles a fixed-latency access occupies at the head
        #: (> 1 models shared-memory bank-conflict serialization)
        self.port_cycles = 1

    def accept(self, now):
        if self.t_first_accept < 0:
            self.t_first_accept = now
        self.t_last_accept = now

    def note_l2_in(self, t):
        """One of this instruction's requests entered an L2 slice."""
        if self.l2_in_min < 0:
            self.l2_in_min = self.l2_in_max = t
        elif t < self.l2_in_min:
            self.l2_in_min = t
        elif t > self.l2_in_max:
            self.l2_in_max = t

    def note_back(self, t):
        """One of this instruction's requests got its data back."""
        if self.back_min < 0:
            self.back_min = self.back_max = t
        elif t < self.back_min:
            self.back_min = t
        elif t > self.back_max:
            self.back_max = t


#: issue kinds of a decoded instruction (the two pipelines first)
ISSUE_SP, ISSUE_SFU, ISSUE_CTRL, ISSUE_BARRIER, ISSUE_MEMORY = range(5)

#: event codes of an L1 hit and of a fixed-latency access (an SP/SFU
#: write-back's code is its nonzero write mask)
_HIT, _FIXED = 0, -1


def issue_kind(inst):
    """The issue-stage kind of one instruction."""
    if inst.is_memory:
        return ISSUE_MEMORY
    if inst.unit is Unit.SP:
        return ISSUE_SP
    if inst.unit is Unit.SFU:
        return ISSUE_SFU
    # bra / bar / membar / exit occupy only the issue stage
    return ISSUE_BARRIER if inst.is_barrier else ISSUE_CTRL


class IssueTable:
    """One kernel's instructions, decoded once for the issue stage.

    ``entries[pc]`` is ``(kind, hazard, writes, inst)`` for the
    instruction at raw pc ``pc``: the :func:`issue_kind`, the registers
    the instruction reads or writes, and the registers it writes, both
    as bitmasks over :attr:`reg_names`.  The list is indexed by raw pc,
    ``None`` in the ``PC_STRIDE`` holes between instructions, so the
    issue stage indexes it straight off a trace's pc column.
    ``memory`` lists the memory instructions.
    """

    __slots__ = ("entries", "memory", "reg_names")

    def __init__(self, instructions):
        bits: Dict[str, int] = {}

        def mask(names):
            m = 0
            for name in names:
                m |= 1 << bits.setdefault(name, len(bits))
            return m

        self.entries = [None] * (len(instructions) * PC_STRIDE)
        for inst in instructions:
            writes = mask(inst.write_reg_names)
            hazard = mask(inst.read_reg_names) | writes
            self.entries[inst.pc] = (issue_kind(inst), hazard, writes, inst)
        self.memory = [inst for inst in instructions if inst.is_memory]
        self.reg_names = list(bits)

    def names(self, regs):
        """The register names of the bitmask ``regs``, in bit order."""
        return [name for i, name in enumerate(self.reg_names)
                if regs >> i & 1]


def memory_facts(issue_table, pc_classes, config):
    """What issuing each memory instruction of one launch needs, resolved
    once per launch and shared by every SM: a list indexed by raw pc.

    A memory pc's entry is ``(latency, load_class, is_load, is_store,
    is_atomic, tallied, prefetch)``.  ``latency`` is the fixed latency
    of a shared, constant or parameter access and ``None`` for the L1
    path (``.global``, ``.tex``, ``.local``).  ``load_class`` is the
    class an L1-path read's requests carry (from ``pc_classes``), and
    ``is_load`` whether the in-flight instruction counts as a load (on
    the L1 path an atomic does).  ``tallied`` marks the ``ld`` whose
    issue the statistics count: every L1-path ``ld`` and a shared one.
    ``prefetch`` marks a ``.global`` ``ld`` under an active prefetcher.
    """
    facts = [None] * len(issue_table.entries)
    prefetcher = config.prefetcher != "none"
    for inst in issue_table.memory:
        space = inst.space
        reads = inst.is_load or inst.is_atomic
        if space is Space.GLOBAL or space is Space.TEX \
                or space is Space.LOCAL:
            facts[inst.pc] = (
                None, pc_classes.get(inst.pc) if reads else None, reads,
                inst.is_store, inst.is_atomic, inst.is_load,
                prefetcher and inst.is_load and space is Space.GLOBAL)
        else:
            latency = (config.shared_latency if space is Space.SHARED
                       else config.const_latency)
            facts[inst.pc] = (latency, None, inst.is_load, inst.is_store,
                              inst.is_atomic, inst.is_shared_load, False)
    return facts


class _WarpRun:
    """One resident warp replaying its trace.

    The warp's pc column (:attr:`pcs`) is replayed straight off its
    trace; :attr:`entry` caches the :class:`IssueTable` entry at the
    issue pointer, and the op at trace position ``i`` is row
    ``base + i`` of the launch's :class:`MemoryPlan`.  ``pending_regs``
    is the scoreboard: a bitmask of the destination registers of issued,
    not yet written-back instructions.  ``waiting`` marks a warp whose
    current instruction has a pending register and that waits for a
    write-back; ``bit`` is its place in the SM's warp masks.
    """

    __slots__ = ("trace", "ptr", "n", "pending_regs", "at_barrier",
                 "cta", "trace_done", "entry", "waiting", "bit",
                 "base", "pcs")

    def __init__(self, trace, cta, table):
        self.trace = trace
        self.ptr = 0
        self.pending_regs = 0
        self.at_barrier = False
        self.waiting = False
        self.bit = 0
        self.cta = cta
        # memoryviews index to plain ints, cheaper than numpy scalars
        self.pcs = memoryview(trace.pc)
        self.base = trace.base
        self.n = len(trace.pc)
        self.trace_done = not self.n
        self.entry = table.entries[self.pcs[0]] if self.n else None


class _CTASlot:
    """Bookkeeping for one CTA resident on the SM."""

    __slots__ = ("cta_id", "warps", "warps_not_done", "outstanding")

    def __init__(self, cta_id):
        self.cta_id = cta_id
        self.warps: List[_WarpRun] = []
        self.warps_not_done = 0
        self.outstanding = 0  # issued ops whose writeback is pending

    @property
    def finished(self):
        return self.warps_not_done == 0 and self.outstanding == 0

    def check_barrier_release(self):
        """Release the barrier once every live warp has arrived; returns
        the released warps."""
        waiting = [w for w in self.warps if w.at_barrier]
        if waiting and len(waiting) >= self.warps_not_done:
            for w in waiting:
                w.at_barrier = False
            return waiting
        return ()


class SMCore:
    """One streaming multiprocessor."""

    def __init__(self, sm_id, config, stats, req_icnt, on_cta_finished,
                 partition_map=None):
        self.sm_id = sm_id
        self.config = config
        self.stats = stats
        self.req_icnt = req_icnt
        self.on_cta_finished = on_cta_finished
        if partition_map is None:
            partition_map = config.partition_map()
        self.partition_map = partition_map
        self.l1 = Cache(
            num_sets=config.l1_num_sets,
            assoc=config.l1_assoc,
            line_size=config.l1_line_size,
            mshr_entries=config.l1_mshr_entries,
            mshr_merge=config.l1_mshr_merge,
            name="L1[%d]" % sm_id,
        )
        self.ldst_queue: deque = deque()
        #: resident warps in assignment (age) order, which retiring a
        #: CTA's warps keeps
        self.warps: List[_WarpRun] = []
        self.ctas: Dict[int, _CTASlot] = {}
        #: where the ``lrr`` scan starts: the warp after the last
        #: issuer, ``len(warps)`` standing for the oldest warp
        self._rr = 0
        self._gto = config.warp_scheduler == "gto"
        self._greedy: Optional[_WarpRun] = None  # gto scheduler state
        # warp masks, bit i standing for self.warps[i]: the candidates
        # (all scoreboard-ready), the warps waiting on the scoreboard,
        # the warps whose trace is not done and, per issue kind, the
        # live warps whose current instruction is of that kind; rebuilt
        # from the warps' flags when self.warps changes (``_dirty``) and
        # kept up to date in between
        self._ready = 0
        self._waiting = 0
        self._live = 0
        self._kinds = [0] * (ISSUE_MEMORY + 1)
        self._dirty = False
        # per pipeline (indexed by ISSUE_SP / ISSUE_SFU): the cycle it
        # accepts its next instruction, and its (initiation interval,
        # result latency, Figure 4 unit name)
        self._busy_until = [0, 0]
        self._pipes = ((config.sp_initiation_interval, config.sp_latency,
                        "sp"),
                       (config.sfu_initiation_interval, config.sfu_latency,
                        "sfu"))
        # per-config constants of the tick
        self._issue_width = config.issue_width
        self._ldst_queue_size = config.ldst_queue_size
        self._l1_hit_latency = config.l1_hit_latency
        self._prefetcher = config.prefetcher
        # (time, seq, payload, code): an SP/SFU write-back carries its
        # warp and its written registers (> 0) as the code, an L1 hit
        # its request and _HIT, a fixed-latency access its in-flight
        # instruction and _FIXED
        self._events: List = []
        self._seq = count()
        #: the next cycle this SM must tick; ``inf`` while nothing but an
        #: external event (a response, a credit, a new CTA) can change it
        self.wake_at = inf
        # sleep snapshot: first cycle not yet accounted for, the stall
        # reason of those cycles (None without resident warps) and the
        # retrying LD/ST head's (outcome, load class), if any
        self._slept_from: Optional[int] = None
        self._sleep_reason: Optional[str] = None
        self._sleep_retry: Optional[Tuple[Outcome, Optional[str]]] = None
        # prefetcher state (Section X.A extension)
        self._pf_queue: deque = deque()
        self._pf_stride: Dict[int, Tuple[int, int]] = {}
        #: per-launch context, set by the GPU before simulation
        self.kernel_name = ""
        self.issue_table: Optional[IssueTable] = None
        self.memory_plan: Optional[MemoryPlan] = None
        #: the launch's :func:`memory_facts`
        self.mem_facts: List = []

    # -- occupancy -----------------------------------------------------------

    @property
    def resident_ctas(self):
        return len(self.ctas)

    def assign_cta(self, cta_id, warp_traces):
        """Make a CTA resident; its warps join the scheduling pool."""
        slot = _CTASlot(cta_id)
        if self._rr == len(self.warps):
            self._rr = 0    # the scan restarts at the oldest warp
        for trace in warp_traces:
            run = _WarpRun(trace, slot, self.issue_table)
            slot.warps.append(run)
            if not run.trace_done:
                slot.warps_not_done += 1
            self.warps.append(run)
        self.ctas[cta_id] = slot
        self._dirty = True
        self.wake_at = 0  # due on the GPU's next cycle
        # a CTA with only empty warp traces finishes immediately
        if slot.finished:
            self._retire_cta(slot)

    def _retire_cta(self, slot):
        del self.ctas[slot.cta_id]
        keep = [w for w in self.warps if w.cta is not slot]
        rr = self._rr if self._rr < len(self.warps) else 0
        self._rr = rr % len(keep) if keep else 0
        self.warps = keep
        self._dirty = True
        if self._greedy is not None and self._greedy.cta is slot:
            self._greedy = None
        self.on_cta_finished(self.sm_id, slot.cta_id)

    # -- responses from the memory system ------------------------------------------

    def receive_response(self, req, now):
        """A data response arrived over the response network."""
        if self.wake_at > now:
            self.wake_at = now
        if req.is_atomic:
            self._complete_request(req, now)
            return
        waiters = self.l1.fill(req.block_addr)
        if req not in waiters:
            waiters.append(req)
        for waiter in waiters:
            self._complete_request(waiter, now)

    def _complete_request(self, req, now):
        inflight = req.inflight
        if inflight is None:
            return  # prefetch fill: no warp is waiting
        inflight.note_back(now)
        inflight.outstanding -= 1
        if inflight.outstanding == 0 and not inflight.pending:
            self._finish_inflight(inflight, now)

    def _finish_inflight(self, inflight, now):
        warp = inflight.warp
        self._writeback(warp, inflight.dests)
        warp.cta.outstanding -= 1
        self._record_completion(inflight, now)
        if warp.cta.finished:
            self._retire_cta(warp.cta)

    def _record_completion(self, inflight, now):
        if not inflight.is_load or inflight.load_class is None \
                or not inflight.n_requests:
            return
        turnaround = now - inflight.t_issue
        wait_first = max(0, inflight.t_first_accept - inflight.t_issue)
        gap_l1d = max(0, inflight.t_last_accept - inflight.t_first_accept)
        # running extrema maintained at the stamp sites (note_l2_in /
        # note_back): completion stays O(1) for wide fan-out loads
        spread_l2_in = (inflight.l2_in_max - inflight.l2_in_min
                        if inflight.l2_in_min >= 0 else 0)
        spread_back = (inflight.back_max - inflight.back_min
                       if inflight.back_min >= 0 else 0)
        gap_icnt_l2 = max(0, spread_l2_in - gap_l1d)
        gap_l2_icnt = max(0, spread_back - spread_l2_in)
        self.stats.record_load_completion(
            inflight.kernel_name, inflight.pc, inflight.load_class,
            inflight.n_requests, turnaround, wait_first, gap_l1d,
            gap_icnt_l2, gap_l2_icnt)

    # -- per-cycle work ----------------------------------------------------------------

    def cycle(self, now):
        """Advance one cycle; returns True when the SM did any work.

        The SM's one pass per tick: pop the due events, present the
        LD/ST head to the L1 (or spend a free port on a prefetch), issue
        up to ``issue_width`` instructions and account the cycle.

        Every candidate is scoreboard-ready, so an issue pass only drops
        the warps whose unit cannot take their instruction this cycle —
        the SP or SFU warps while that pipe is busy, the memory warps
        while the LD/ST queue is full — and issues the first warp left
        in scheduler order: ``lrr`` (the paper's baseline) from the warp
        after the last issuer, ``gto`` the greedy warp first and then
        the oldest (:attr:`warps` is in age order).  The issuer's next
        instruction then becomes current, moving the warp between the
        per-kind masks and, when a register it names is pending, from
        the candidates to the scoreboard-waiting warps.

        Afterwards :attr:`wake_at` is the next cycle the SM must tick.
        """
        if self._slept_from is not None:
            self.settle(now)
        events = self._events
        popped = events and events[0][0] <= now
        while popped:
            _t, _s, payload, writes = heappop(events)
            if writes > 0:
                # an SP/SFU result: :meth:`_writeback` inlined, since
                # this is the most frequent event
                warp = payload
                pending = warp.pending_regs & ~writes
                warp.pending_regs = pending
                if warp.waiting and not pending & warp.entry[1]:
                    warp.waiting = False
                    self._waiting ^= warp.bit
                    self._ready |= warp.bit
                cta = warp.cta
                cta.outstanding -= 1
                if not cta.outstanding and not cta.warps_not_done:
                    self._retire_cta(cta)
            elif writes == _HIT:
                self._complete_request(payload, now)
            else:
                self._finish_inflight(payload, now)
            if not events or events[0][0] > now:
                break
        head = self._ldst_cycle(now) if self.ldst_queue else None
        prefetched = False
        if head is None and self._pf_queue:
            # the L1 port is free this cycle: spend it on a prefetch
            prefetched = self._prefetch_cycle(now)
        issued = 0
        # no candidate and no mask rebuild due: a pass would issue nothing
        if (self._ready or self._dirty) and self.warps:
            if self._dirty:
                self._rebuild_masks()
            warps = self.warps
            kinds = self._kinds
            entries = self.issue_table.entries
            pipes = self._pipes
            busy_until = self._busy_until
            sp_busy = busy_until[ISSUE_SP] > now
            sfu_busy = busy_until[ISSUE_SFU] > now
            room = self._ldst_queue_size - len(self.ldst_queue)
            width = self._issue_width
            gto = self._gto
            while True:
                cand = self._ready
                if sp_busy:
                    cand &= ~kinds[ISSUE_SP]
                if sfu_busy:
                    cand &= ~kinds[ISSUE_SFU]
                if room <= 0:
                    cand &= ~kinds[ISSUE_MEMORY]
                if not cand:
                    break   # this pass has nothing to issue
                if gto:
                    warp = self._greedy
                    if warp is not None and cand & warp.bit:
                        bit = warp.bit
                    else:
                        bit = cand & -cand
                        warp = self._greedy = warps[bit.bit_length() - 1]
                else:
                    start = self._rr
                    high = cand >> start
                    bit = (high & -high) << start if high else cand & -cand
                    index = bit.bit_length()
                    warp = warps[index - 1]
                    # loose round-robin: restart after the issued warp
                    self._rr = index
                issued += 1
                kind, _hazard, writes, inst = warp.entry
                if kind <= ISSUE_SFU:
                    interval, latency, unit = pipes[kind]
                    busy_until[kind] = now + interval
                    if kind == ISSUE_SP:
                        sp_busy = interval > 0
                    else:
                        sfu_busy = interval > 0
                    self.stats.unit_busy[unit] += interval
                    if writes:
                        # the result's registers are pending until then
                        warp.pending_regs |= writes
                        warp.cta.outstanding += 1
                        heappush(events, (now + latency, next(self._seq),
                                          warp, writes))
                elif kind == ISSUE_MEMORY:
                    self._issue_memory(warp, inst, writes, now)
                    room -= 1
                elif kind == ISSUE_BARRIER:
                    warp.at_barrier = True
                    self._ready ^= bit
                    self._wake(warp.cta.check_barrier_release())
                ptr = warp.ptr = warp.ptr + 1
                if ptr == warp.n:
                    self._trace_done(warp, kind)
                    if not self.warps or issued == width:
                        break
                    if self._dirty:
                        self._rebuild_masks()
                        warps = self.warps
                        kinds = self._kinds
                    continue
                entry = warp.entry = entries[warp.pcs[ptr]]
                if entry[0] != kind:
                    kinds[kind] ^= bit
                    kinds[entry[0]] |= bit
                if warp.pending_regs & entry[1] and not warp.at_barrier:
                    # mark the hazard now, so every candidate is ready
                    warp.waiting = True
                    self._ready ^= bit
                    self._waiting |= bit
                if issued == width:
                    break
            if issued:
                self.stats.issued_warp_insts += issued
        reason = None
        if self.warps:
            self.stats.active_sm_cycles += 1
            if not issued:
                # the pass that issued nothing left only scoreboard-ready
                # warps (blocked on a unit) among the candidates
                if self._ready:
                    reason = "unit_busy"
                elif self._waiting:
                    reason = "scoreboard"
                else:
                    reason = "barrier" if self._live else "drained"
                self.stats.issue_stall[reason] += 1
        if popped or issued or prefetched or head is True:
            self.wake_at = now + 1
            return True
        self._sleep(now, reason, head)
        return head is not None

    def _sleep(self, now, reason, outcome):
        """Nothing changed this cycle: sleep until the next internal
        event.  ``outcome`` is the LD/ST head's failed reservation, or
        None when the LD/ST queue is empty."""
        wake = self._events[0][0] if self._events else inf
        if reason == "unit_busy":
            # a scoreboard-ready warp may be waiting on the SP or SFU
            for busy_until in self._busy_until:
                if now < busy_until < wake:
                    wake = busy_until
        self.wake_at = wake
        self._slept_from = now + 1
        self._sleep_reason = reason
        self._sleep_retry = None if outcome is None else (
            outcome, self.ldst_queue[0].pending[0].load_class)

    def settle(self, now):
        """Account the cycles slept before ``now`` in bulk: each one
        repeats the cycle the SM went to sleep after."""
        if self._slept_from is None:
            return
        cycles = now - self._slept_from
        self._slept_from = None
        stats = self.stats
        if self._sleep_reason is not None:
            stats.active_sm_cycles += cycles
            stats.issue_stall[self._sleep_reason] += cycles
        if self._sleep_retry is not None:
            stats.unit_busy["ldst"] += cycles
            stats.record_l1_cycle(*self._sleep_retry, cycles=cycles)

    def credit_returned(self, now):
        """One of this SM's requests left the request network."""
        if self._sleep_retry is not None and self.wake_at > now \
                and self._sleep_retry[0] is Outcome.RSRV_FAIL_ICNT:
            self.wake_at = now

    def stall_reason(self):
        """Why no instruction can issue right now (coarse, prioritized)."""
        live = runnable = False
        for warp in self.warps:
            if warp.trace_done:
                continue
            live = True
            if warp.at_barrier:
                continue
            runnable = True
            if not warp.pending_regs & warp.entry[1]:
                return "unit_busy"
        if runnable:
            return "scoreboard"
        return "barrier" if live else "drained"

    def debug_state(self):
        """Scheduling-relevant state for deadlock reports."""
        warps = []
        for w in self.warps:
            if w.trace_done and not w.pending_regs:
                continue
            warps.append({"cta": w.cta.cta_id, "warp": w.trace.warp_id,
                          "op": "%d/%d" % (w.ptr, w.n),
                          "at_barrier": w.at_barrier,
                          "pending_regs": sorted(
                              self.issue_table.names(w.pending_regs))})
        return {"sm": self.sm_id,
                "resident_ctas": sorted(self.ctas),
                "stall": self.stall_reason() if self.warps else "empty",
                "ldst_queue": len(self.ldst_queue),
                "pending_events": len(self._events),
                "l1_mshr": self.l1.mshr.debug_state(),
                "warps": warps}

    def _schedule(self, time, payload, code):
        heappush(self._events, (time, next(self._seq), payload, code))

    # -- LD/ST unit ---------------------------------------------------------------------

    def _ldst_cycle(self, now):
        """Present the head of the (non-empty) LD/ST queue to its port.
        Returns True when the head made progress, or the
        reservation-fail :class:`Outcome` it retries on."""
        self.stats.unit_busy["ldst"] += 1
        head = self.ldst_queue[0]

        if head.fixed_latency is not None:
            # shared/const/param accesses and all-inactive loads: fixed
            # latency, no L1 traffic; bank-conflicted shared accesses
            # occupy the port for several cycles
            head.port_cycles -= 1
            if head.port_cycles > 0:
                self.stats.shared_bank_conflict_cycles += 1
                return True
            self.ldst_queue.popleft()
            if head.dests:
                self._schedule(now + head.fixed_latency, head, _FIXED)
            else:
                head.warp.cta.outstanding -= 1
                if head.warp.cta.finished:
                    self._retire_cta(head.warp.cta)
            return True

        req = head.pending[0]
        outcome = self._access_l1(req, now)
        self.stats.record_l1_cycle(outcome, req.load_class)
        if outcome.is_fail:
            return outcome
        if not req.is_write and not req.is_atomic:
            self.stats.record_l1_result(outcome, req.load_class)
        head.accept(now)
        head.pending.pop(0)
        if not head.pending:
            self.ldst_queue.popleft()
            if head.is_store:
                # write-through stores complete at acceptance
                head.warp.cta.outstanding -= 1
                if head.warp.cta.finished:
                    self._retire_cta(head.warp.cta)
            elif head.outstanding == 0:
                self._finish_inflight(head, now)
        return True

    def _access_l1(self, req, now):
        """Present one request to the L1 port; returns the outcome."""
        if req.is_write or req.is_atomic:
            # bypass: stores are write-through no-allocate (write-evict on
            # hit), atomics execute at the L2 — both only need a network slot
            if not self.req_icnt.can_inject(self.sm_id):
                return Outcome.RSRV_FAIL_ICNT
            if req.is_write:
                self.l1.write_touch(req.block_addr)
            self.req_icnt.inject(req, self.sm_id, req.partition, now)
            return Outcome.MISS

        outcome = self.l1.lookup(req.block_addr)
        if outcome is Outcome.HIT:
            self.l1.commit_hit(req.block_addr)
            self._schedule(now + self._l1_hit_latency, req, _HIT)
            return outcome
        if outcome is Outcome.HIT_RESERVED:
            self.l1.commit_hit_reserved(req.block_addr, req)
            return outcome
        if outcome is Outcome.MISS:
            if not self.req_icnt.can_inject(self.sm_id):
                return Outcome.RSRV_FAIL_ICNT
            self.l1.commit_miss(req.block_addr, req)
            self.req_icnt.inject(req, self.sm_id, req.partition, now)
            return outcome
        return outcome  # a reservation failure from the cache itself

    # -- issue stage ------------------------------------------------------------------------

    def _rebuild_masks(self):
        """Recompute the warp masks from the warps' flags after
        :attr:`warps` changed."""
        ready = waiting = live = 0
        kinds = [0] * len(self._kinds)
        bit = 1
        for warp in self.warps:
            warp.bit = bit
            if not warp.trace_done:
                live |= bit
                kinds[warp.entry[0]] |= bit
                if warp.waiting:
                    waiting |= bit
                elif not warp.at_barrier:
                    ready |= bit
            bit <<= 1
        self._ready, self._waiting, self._live = ready, waiting, live
        self._kinds = kinds
        self._dirty = False

    def _writeback(self, warp, writes):
        """Clear written-back registers from a warp's scoreboard; a
        waiting warp whose hazards are all clear is a candidate again."""
        pending = warp.pending_regs & ~writes
        warp.pending_regs = pending
        if warp.waiting and not pending & warp.entry[1]:
            warp.waiting = False
            self._waiting &= ~warp.bit
            self._ready |= warp.bit

    def _wake(self, released):
        """Barrier-released warps are candidates again, or wait on the
        scoreboard when their current instruction has a hazard."""
        for warp in released:
            if warp.trace_done:
                continue
            if warp.pending_regs & warp.entry[1]:
                warp.waiting = True
                self._waiting |= warp.bit
            else:
                self._ready |= warp.bit

    def _trace_done(self, warp, kind):
        """``warp`` issued its last instruction, of issue ``kind``."""
        warp.trace_done = True
        bit = warp.bit
        self._ready &= ~bit
        self._live ^= bit
        self._kinds[kind] ^= bit
        cta = warp.cta
        cta.warps_not_done -= 1
        self._wake(cta.check_barrier_release())
        if cta.finished:
            self._retire_cta(cta)

    def _issue_memory(self, warp, inst, writes, now):
        """Queue the memory instruction ``warp`` issues at the LD/ST unit
        (the issue stage checked that the queue has room), as the
        launch's :func:`memory_facts` say."""
        latency, load_class, is_load, is_store, is_atomic, tallied, \
            prefetch = self.mem_facts[inst.pc]
        plan = self.memory_plan
        row = warp.base + warp.ptr
        pc = inst.pc
        if latency is None:
            inflight = InflightMemInst(warp, writes, pc, self.kernel_name,
                                       load_class, is_load, is_store, now)
            blocks = plan.requests(row)
            if blocks:
                sm_id = self.sm_id
                partition_map = self.partition_map
                pending = inflight.pending
                for block in blocks:
                    req = MemRequest(block, pc, load_class, is_store,
                                     is_atomic, sm_id, inflight)
                    req.partition = partition_map(sm_id, block)
                    pending.append(req)
            else:
                # all lanes predicated off: trivial completion
                inflight.fixed_latency = 1
            inflight.n_requests = len(blocks)
            inflight.outstanding = 0 if is_store else len(blocks)
            if tallied:
                self.stats.global_load_insts += 1
                self.stats.record_coalescing(load_class, len(blocks),
                                             plan.lanes[row])
                if prefetch:
                    self._generate_prefetches(warp, inst, blocks)
            elif is_store:
                self.stats.global_store_insts += 1
        else:
            # shared / const / param: fixed latency, no L1 traffic
            if tallied:
                self.stats.shared_load_insts += 1
            inflight = InflightMemInst(
                warp, writes if is_load or is_atomic else 0, pc,
                self.kernel_name, None, is_load, is_store, now, latency)
            # bank-conflicted shared accesses hold the port longer
            inflight.port_cycles = plan.port[row]

        warp.pending_regs |= inflight.dests
        warp.cta.outstanding += 1
        self.ldst_queue.append(inflight)

    # -- prefetcher (Section X.A extension) --------------------------------

    def _pf_push(self, block):
        if len(self._pf_queue) >= self.config.prefetch_queue_size:
            self._pf_queue.popleft()
            self.stats.prefetch_dropped += 1
        self._pf_queue.append(block)

    def _generate_prefetches(self, warp, inst, blocks):
        """Prefetch for a global load that just issued ``blocks``."""
        if self._prefetcher == "stride":
            # classic per-PC stride prediction on the load's first block
            if blocks:
                first = blocks[0]
                last, last_stride = self._pf_stride.get(inst.pc, (first, 0))
                stride = first - last
                if stride != 0 and stride == last_stride:
                    self._pf_push(first + stride)
                self._pf_stride[inst.pc] = (first, stride)
            return
        # indirect oracle: look ahead in this warp's trace for the next
        # non-deterministic global load and prefetch its blocks — a
        # perfect indirect-address predictor (upper bound for [16])
        plan = self.memory_plan
        for idx in range(warp.ptr + 1, min(
                warp.ptr + 1 + self.config.prefetch_lookahead, warp.n)):
            if plan.kind[warp.base + idx] == KIND_NONE:
                continue
            future = self.issue_table.entries[warp.pcs[idx]][3]
            if future.is_global_load \
                    and self.mem_facts[future.pc][1] == "N":
                for block in plan.requests(warp.base + idx):
                    self._pf_push(block)
                break

    def _prefetch_cycle(self, now):
        """Spend a free L1-port cycle on the oldest pending prefetch."""
        block = self._pf_queue.popleft()
        outcome = self.l1.lookup(block)
        if outcome is not Outcome.MISS:
            return True  # already present, in flight, or unprefetchable
        if not self.req_icnt.can_inject(self.sm_id):
            self._pf_queue.appendleft(block)
            return True
        req = MemRequest(block_addr=block, pc=0, load_class=None,
                         sm_id=self.sm_id)
        req.partition = self.partition_map(self.sm_id, block)
        self.l1.commit_miss(block, req)
        self.req_icnt.inject(req, self.sm_id, req.partition, now)
        self.stats.prefetch_issued += 1
        return True
