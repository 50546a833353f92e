"""The SIMT core (SM) timing model.

Replays warp traces produced by the functional emulator through a
cycle-level model of one streaming multiprocessor:

* a loose round-robin warp scheduler issuing up to ``issue_width``
  instructions per cycle, gated by a per-warp scoreboard,
* SP / SFU pipelines with initiation intervals and result latencies
  (their first-pipeline-stage occupancy is Figure 4's busy metric),
* an LD/ST unit with an in-order memory-instruction queue; the head
  instruction presents one coalesced request per cycle to the L1, and a
  request that suffers a reservation failure retries — those retry cycles
  are exactly the wasted L1 cycles of Figure 3,
* a private L1 data cache (tags + MSHRs, write-through / write-evict),
* CTA slots with ``bar.sync`` barrier tracking.

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

import heapq
from collections import deque
from itertools import count
from math import inf
from typing import Dict, List, Optional, Set, Tuple

from ..emulator.columnar import _PC_SHIFT, KIND_NONE
from ..ptx.isa import Space, Unit
from .cache import Cache, Outcome
from .coalescer import coalesce_addresses
from .request import MemRequest


class InflightMemInst:
    """A memory warp-instruction from LD/ST issue to last data writeback."""

    __slots__ = ("warp", "dests", "pending", "requests", "outstanding",
                 "n_requests", "t_issue", "t_first_accept", "t_last_accept",
                 "l2_in_min", "l2_in_max", "back_min", "back_max",
                 "load_class", "pc", "kernel_name", "is_load", "is_store",
                 "fixed_latency", "port_cycles")

    def __init__(self, warp, dests, pc, kernel_name, load_class,
                 is_load, is_store, t_issue, fixed_latency=None):
        self.warp = warp
        self.dests = dests
        self.pending: List[MemRequest] = []
        self.requests: List[MemRequest] = []
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


class _OpView:
    """The slice of one trace op the timing model consumes."""

    __slots__ = ("inst", "pc", "addresses")

    def __init__(self, inst, pc, addresses):
        self.inst = inst
        self.pc = pc
        self.addresses = addresses


class _WarpRun:
    """One resident warp replaying its trace.

    The warp's columnar trace is replayed straight off its column
    arrays: each issued op materializes one transient :class:`_OpView`
    (cached while the issue pointer sits on it), never a per-op record
    list.
    """

    __slots__ = ("trace", "ptr", "n", "pending_regs", "at_barrier",
                 "cta", "trace_done", "age", "_insts", "_pc",
                 "_kind", "_astart", "_lanes", "_addrs",
                 "_cur_idx", "_cur_op")

    def __init__(self, trace, cta, age=0):
        self.trace = trace
        self.ptr = 0
        self.pending_regs: Set[str] = set()
        self.at_barrier = False
        self.cta = cta
        self.age = age
        self._cur_idx = -1
        self._cur_op = None
        trace.seal()
        self._insts = trace._launch.instructions
        self._pc = trace.pc
        self._kind = trace.kind
        self._astart = trace.astart
        self._lanes = trace.lanes
        self._addrs = trace.addrs
        self.n = len(trace.pc)
        self.trace_done = not self.n

    def op_at(self, idx):
        """The op view at trace position ``idx`` (uncached)."""
        pc = int(self._pc[idx])
        inst = self._insts[pc >> _PC_SHIFT]
        addresses = None
        if self._kind[idx] != KIND_NONE:
            lo, hi = int(self._astart[idx]), int(self._astart[idx + 1])
            addresses = list(zip(self._lanes[lo:hi].tolist(),
                                 self._addrs[lo:hi].tolist()))
        return _OpView(inst, pc, addresses)

    def peek(self):
        """The op at the issue pointer (cached until the warp advances)."""
        if self._cur_idx != self.ptr:
            self._cur_op = self.op_at(self.ptr)
            self._cur_idx = self.ptr
        return self._cur_op

    @property
    def blocked(self):
        return self.trace_done or self.at_barrier


class _CTASlot:
    """Bookkeeping for one CTA resident on the SM."""

    __slots__ = ("cta_id", "warps", "warps_not_done", "barrier_count",
                 "outstanding")

    def __init__(self, cta_id):
        self.cta_id = cta_id
        self.warps: List[_WarpRun] = []
        self.warps_not_done = 0
        self.barrier_count = 0
        self.outstanding = 0  # issued ops whose writeback is pending

    @property
    def finished(self):
        return self.warps_not_done == 0 and self.outstanding == 0

    def check_barrier_release(self):
        """Release the barrier once every live warp has arrived."""
        waiting = [w for w in self.warps if w.at_barrier]
        if waiting and len(waiting) >= self.warps_not_done:
            for w in waiting:
                w.at_barrier = False
            self.barrier_count = 0
            return True
        return False


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
            partition_map = lambda sm, block: (
                (block // config.l1_line_size) % config.num_partitions)
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
        self.warps: List[_WarpRun] = []
        self.ctas: Dict[int, _CTASlot] = {}
        self._rr = 0
        self._greedy: Optional[_WarpRun] = None  # gto scheduler state
        self._warp_age = count()
        self._sp_busy_until = 0
        self._sfu_busy_until = 0
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
        self.pc_classes: Dict[int, str] = {}

    # -- occupancy -----------------------------------------------------------

    @property
    def resident_ctas(self):
        return len(self.ctas)

    def assign_cta(self, cta_id, warp_traces):
        """Make a CTA resident; its warps join the scheduling pool."""
        slot = _CTASlot(cta_id)
        for trace in warp_traces:
            run = _WarpRun(trace, slot, age=next(self._warp_age))
            slot.warps.append(run)
            if not run.trace_done:
                slot.warps_not_done += 1
            self.warps.append(run)
        self.ctas[cta_id] = slot
        self.wake_at = 0  # due on the GPU's next cycle
        # a CTA with only empty warp traces finishes immediately
        if slot.finished:
            self._retire_cta(slot)

    def _retire_cta(self, slot):
        del self.ctas[slot.cta_id]
        keep = [w for w in self.warps if w.cta is not slot]
        self.warps = keep
        self._rr = 0 if not keep else self._rr % len(keep)
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
        req.t_back = now
        inflight = req.inflight
        if inflight is None:
            return  # prefetch fill: no warp is waiting
        inflight.note_back(now)
        inflight.outstanding -= 1
        if inflight.outstanding == 0 and not inflight.pending:
            self._finish_inflight(inflight, now)

    def _finish_inflight(self, inflight, now):
        warp = inflight.warp
        for dest in inflight.dests:
            warp.pending_regs.discard(dest)
        warp.cta.outstanding -= 1
        self._record_completion(inflight, now)
        if warp.cta.finished:
            self._retire_cta(warp.cta)

    def _record_completion(self, inflight, now):
        if not inflight.is_load or inflight.load_class is None \
                or not inflight.requests:
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

        Afterwards :attr:`wake_at` is the next cycle the SM must tick.
        """
        if self._slept_from is not None:
            self.settle(now)
        popped = self._pop_events(now)
        head = self._ldst_cycle(now)
        prefetched = False
        if head is None and self._pf_queue:
            # the L1 port is free this cycle: spend it on a prefetch
            prefetched = self._prefetch_cycle(now)
        issued = self._issue(now)
        reason = None
        if self.warps:
            self.stats.active_sm_cycles += 1
            if not issued:
                reason = self.stall_reason()
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
            for busy_until in (self._sp_busy_until, self._sfu_busy_until):
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
            if self._scoreboard_ready(warp, warp.peek().inst):
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
                          "pending_regs": sorted(w.pending_regs)})
        return {"sm": self.sm_id,
                "resident_ctas": sorted(self.ctas),
                "stall": self.stall_reason() if self.warps else "empty",
                "ldst_queue": len(self.ldst_queue),
                "pending_events": len(self._events),
                "l1_mshr": self.l1.mshr.debug_state(),
                "warps": warps}

    def _pop_events(self, now):
        worked = False
        while self._events and self._events[0][0] <= now:
            _t, _s, kind, payload = heapq.heappop(self._events)
            worked = True
            if kind == "wb":
                warp, dests = payload
                for dest in dests:
                    warp.pending_regs.discard(dest)
                warp.cta.outstanding -= 1
                if warp.cta.finished:
                    self._retire_cta(warp.cta)
            elif kind == "hit":
                self._complete_request(payload, now)
            elif kind == "fixed":
                self._finish_inflight(payload, now)
        return worked

    def _schedule(self, time, kind, payload):
        heapq.heappush(self._events, (time, next(self._seq), kind, payload))

    # -- LD/ST unit ---------------------------------------------------------------------

    def _ldst_cycle(self, now):
        """Present the LD/ST head to its port.  Returns None when the
        queue is empty, True when the head made progress, or the
        reservation-fail :class:`Outcome` it retries on."""
        if not self.ldst_queue:
            return None
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
                self._schedule(now + head.fixed_latency, "fixed", head)
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
        req.t_accept = now
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
            self._schedule(now + self.config.l1_hit_latency, "hit", req)
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

    def _scoreboard_ready(self, warp, inst):
        pend = warp.pending_regs
        if not pend:
            return True
        for name in inst.read_reg_names:
            if name in pend:
                return False
        for name in inst.write_reg_names:
            if name in pend:
                return False
        return True

    def _candidate_order(self):
        """Warp visit order according to the configured scheduler.

        ``lrr`` (the paper's baseline) rotates from the warp after the
        last issuer; ``gto`` keeps the greedy warp first, then falls back
        to the oldest-assigned warps.
        """
        n = len(self.warps)
        if self.config.warp_scheduler == "gto":
            ordered = sorted(self.warps, key=lambda w: w.age)
            greedy = self._greedy
            if greedy is not None and greedy in self.warps:
                ordered.remove(greedy)
                ordered.insert(0, greedy)
            return ordered
        start = self._rr % n
        return [self.warps[(start + k) % n] for k in range(n)]

    def _issue(self, now):
        if not self.warps:
            return False
        issued = 0
        rescan = True
        while rescan and issued < self.config.issue_width:
            rescan = False
            for warp in self._candidate_order():
                if warp.blocked:
                    continue
                op = warp.peek()
                inst = op.inst
                if not self._scoreboard_ready(warp, inst):
                    continue
                if not self._try_issue(warp, op, now):
                    continue
                issued += 1
                if self.config.warp_scheduler == "gto":
                    self._greedy = warp
                elif warp in self.warps:
                    # loose round-robin: restart after the issued warp
                    self._rr = (self.warps.index(warp) + 1) % len(self.warps)
                self._advance(warp)
                rescan = bool(self.warps)
                break
        return issued > 0

    def _advance(self, warp):
        warp.ptr += 1
        self.stats.issued_warp_insts += 1
        if warp.ptr >= warp.n:
            warp.trace_done = True
            warp.cta.warps_not_done -= 1
            warp.cta.check_barrier_release()
            if warp.cta.finished:
                self._retire_cta(warp.cta)

    def _try_issue(self, warp, op, now):
        inst = op.inst
        if inst.is_memory:
            return self._issue_memory(warp, op, now)

        unit = inst.unit
        if unit is Unit.SP:
            if self._sp_busy_until > now:
                return False
            self._sp_busy_until = now + self.config.sp_initiation_interval
            self.stats.unit_busy["sp"] += self.config.sp_initiation_interval
            latency = self.config.sp_latency
        elif unit is Unit.SFU:
            if self._sfu_busy_until > now:
                return False
            self._sfu_busy_until = now + self.config.sfu_initiation_interval
            self.stats.unit_busy["sfu"] += self.config.sfu_initiation_interval
            latency = self.config.sfu_latency
        else:  # CTRL: bra / bar / membar / exit occupy only the issue stage
            if inst.is_barrier:
                warp.at_barrier = True
                warp.cta.barrier_count += 1
                warp.cta.check_barrier_release()
            return True

        dests = tuple(r.name for r in inst.writes())
        if dests:
            warp.pending_regs.update(dests)
            warp.cta.outstanding += 1
            self._schedule(now + latency, "wb", (warp, dests))
        return True

    def _issue_memory(self, warp, op, now):
        if len(self.ldst_queue) >= self.config.ldst_queue_size:
            return False
        inst = op.inst
        dests = tuple(r.name for r in inst.writes())
        space = inst.space

        if space is Space.GLOBAL or space is Space.TEX or space is Space.LOCAL:
            load_class = self.pc_classes.get(inst.pc) if inst.is_load else None
            if inst.is_atomic:
                load_class = self.pc_classes.get(inst.pc)
            inflight = InflightMemInst(
                warp, dests, inst.pc, self.kernel_name, load_class,
                is_load=inst.is_load or inst.is_atomic,
                is_store=inst.is_store, t_issue=now)
            blocks = coalesce_addresses(
                op.addresses or (), line_size=self.config.l1_line_size,
                access_size=inst.access_bytes)
            if not blocks:
                # all lanes predicated off: trivial completion
                inflight.fixed_latency = 1
            for block in blocks:
                req = MemRequest(
                    block_addr=block, pc=inst.pc, load_class=load_class,
                    is_write=inst.is_store, is_atomic=inst.is_atomic,
                    sm_id=self.sm_id, inflight=inflight)
                req.t_issue = now
                req.partition = self.partition_map(self.sm_id, block)
                inflight.pending.append(req)
                inflight.requests.append(req)
            inflight.n_requests = len(blocks)
            inflight.outstanding = 0 if inst.is_store else len(blocks)
            if inst.is_load:
                self.stats.global_load_insts += 1
                self.stats.record_coalescing(
                    load_class, len(blocks),
                    len(op.addresses) if op.addresses else 0)
            elif inst.is_store:
                self.stats.global_store_insts += 1
        else:
            # shared / const / param: fixed-latency path, no L1 traffic
            if space is Space.SHARED:
                latency = self.config.shared_latency
                if inst.is_shared_load:
                    self.stats.shared_load_insts += 1
            else:
                latency = self.config.const_latency
            inflight = InflightMemInst(
                warp, dests if inst.is_load or inst.is_atomic else (),
                inst.pc, self.kernel_name, None,
                is_load=inst.is_load, is_store=inst.is_store,
                t_issue=now, fixed_latency=latency)
            if space is Space.SHARED and op.addresses:
                inflight.port_cycles = self._bank_conflict_degree(
                    op.addresses)

        if inflight.dests:
            warp.pending_regs.update(inflight.dests)
        warp.cta.outstanding += 1
        self.ldst_queue.append(inflight)
        if self.config.prefetcher != "none" and inst.is_load \
                and space is Space.GLOBAL:
            self._generate_prefetches(warp, op)
        return True

    def _bank_conflict_degree(self, addresses):
        """Port cycles a shared access needs: the worst bank's count of
        *distinct* words (same-word accesses broadcast for free)."""
        banks: Dict[int, Set[int]] = {}
        width = self.config.shared_bank_width
        nbanks = self.config.shared_banks
        for _lane, addr in addresses:
            word = addr // width
            banks.setdefault(word % nbanks, set()).add(word)
        if not banks:
            return 1
        return max(len(words) for words in banks.values())

    # -- prefetcher (Section X.A extension) --------------------------------

    def _pf_push(self, block):
        if len(self._pf_queue) >= self.config.prefetch_queue_size:
            self._pf_queue.popleft()
            self.stats.prefetch_dropped += 1
        self._pf_queue.append(block)

    def _generate_prefetches(self, warp, op):
        config = self.config
        if config.prefetcher == "stride":
            # classic per-PC stride prediction on the load's first block
            blocks = coalesce_addresses(op.addresses or (),
                                        line_size=config.l1_line_size)
            if not blocks:
                return
            first = blocks[0]
            last = self._pf_stride.get(op.pc)
            if last is not None:
                stride = first - last[0]
                if stride != 0 and stride == last[1]:
                    self._pf_push(first + stride)
                self._pf_stride[op.pc] = (first, stride)
            else:
                self._pf_stride[op.pc] = (first, 0)
            return
        # indirect oracle: look ahead in this warp's trace for the next
        # non-deterministic global load and prefetch its blocks — a
        # perfect indirect-address predictor (upper bound for [16])
        lookahead = config.prefetch_lookahead
        for idx in range(warp.ptr + 1,
                         min(warp.ptr + 1 + lookahead, warp.n)):
            future = warp.op_at(idx)
            if future.addresses is None or not future.inst.is_global_load:
                continue
            if self.pc_classes.get(future.inst.pc) != "N":
                continue
            for block in coalesce_addresses(
                    future.addresses, line_size=config.l1_line_size):
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
                         sm_id=self.sm_id, is_prefetch=True)
        req.t_issue = now
        req.partition = self.partition_map(self.sm_id, block)
        self.l1.commit_miss(block, req)
        self.req_icnt.inject(req, self.sm_id, req.partition, now)
        self.stats.prefetch_issued += 1
        return True
