"""Top-level GPU timing simulator.

Wires the SMs, the two interconnect directions and the memory partitions
together as its :class:`~repro.sim.config.GPUConfig` describes (CTA
policy and L2 organization included), and replays the warp traces of an
application's kernel launches (:meth:`GPU.run_application`).

The main loop is driven by per-component wake times, and each of its
iterations costs only the work that is due.  Every SM and every memory
partition carries the next cycle it must tick (``wake_at``).  A launch
lists its live SMs once, after the initial CTA fill: those with a
resident CTA, a wake time or an L1 miss in flight.  No other SM can get
work later in the launch, so no other SM is scanned or ticked.  The
loop keeps the earliest wake of the partitions and of the live SMs,
which only a delivery or the group's own ticks can move; an iteration
jumps the clock to the earlier of the two or to a network's head
delivery, lets a network deliver only when its head is due, and walks
a group only when its earliest wake is due, ticking the due members
and recomputing the group's wake in that one pass.  The launch ends
when its last CTA finishes (a count the CTA-finished callback keeps).
The result is the same as ticking every component on every cycle:

* a partition is a no-op between its internal events, except for
  responses waiting on a network credit, and a returning credit wakes
  it;
* an SM whose cycle changed nothing (no event, no issue, no prefetch,
  its LD/ST head absent or failing its L1 reservation) would repeat that
  cycle until a response arrives, one of its own requests leaves the
  request network (returning a credit), or its next event or functional
  unit falls due.  It sleeps until then and adds the slept cycles to the
  active-cycle, issue-stall, LD/ST-busy and L1-outcome counts in one
  step when it next ticks, so Figures 3 and 4 see every cycle.

When work is pending but no component has a wake time, nothing can ever
change again: the loop raises a deadlock :class:`SimulationError`.
"""

from __future__ import annotations

from math import inf
from typing import Dict, List, Tuple

from ..obs import tracing
from .coalescer import MemoryPlan, pc_class_map
from .config import TESLA_C2050
from .core import IssueTable, SMCore
from .cta_scheduler import make_scheduler
from .icnt import Interconnect
from .memory_partition import MemoryPartition
from .stats import SimStats


class SimulationError(Exception):
    """Raised on deadlock or cycle-budget exhaustion.

    ``state`` (when set) is the structured :meth:`GPU.debug_state`
    snapshot taken at the failing cycle; the formatted dump is also
    appended to the message so plain tracebacks show where the machine
    was stuck.
    """

    def __init__(self, message, state=None):
        self.state = state
        if state is not None:
            message = "%s\n%s" % (message, _format_state(state))
        super().__init__(message)


def _format_state(state):
    """Render a :meth:`GPU.debug_state` snapshot as an indented report."""
    lines = ["simulator state at failure:"]
    for icnt in state["interconnects"]:
        lines.append("  icnt %(name)s: %(in_flight)d in flight, "
                     "credits=%(credits)s" % icnt)
    for part in state["partitions"]:
        mshr = part["l2_mshr"]
        lines.append("  partition %d: rop=%d dram_queue=%d "
                     "dram_in_flight=%d resp_wait=%d+%d "
                     "L2-MSHR %d/%d" % (
                         part["partition"], part["rop_queue"],
                         part["dram_queue"], part["dram_in_flight"],
                         part["resp_wait_latency"], part["resp_wait_credit"],
                         mshr["occupancy"], mshr["capacity"]))
    for sm in state["sms"]:
        mshr = sm["l1_mshr"]
        lines.append("  sm %d: ctas=%s stall=%s ldst=%d events=%d "
                     "L1-MSHR %d/%d" % (
                         sm["sm"], sm["resident_ctas"], sm["stall"],
                         sm["ldst_queue"], sm["pending_events"],
                         mshr["occupancy"], mshr["capacity"]))
        for w in sm["warps"][:8]:
            lines.append("    cta %s warp %s: op %s%s pending=%s" % (
                w["cta"], w["warp"], w["op"],
                " at-barrier" if w["at_barrier"] else "",
                ",".join(w["pending_regs"]) or "-"))
    if state.get("unassigned_ctas"):
        lines.append("  unassigned CTAs: %d" % state["unassigned_ctas"])
    return "\n".join(lines)


class GPU:
    """A simulated GPU that replays emulator traces."""

    def __init__(self, config=TESLA_C2050, max_cycles=500_000_000):
        config.validate()
        self.config = config
        self.max_cycles = max_cycles
        self.stats = SimStats()
        self.now = 0
        self.req_icnt = Interconnect(
            num_sources=config.num_sms, num_dests=config.num_partitions,
            latency=config.crossbar_latency,
            credits_per_source=config.icnt_credits_per_sm, name="req")
        self.resp_icnt = Interconnect(
            num_sources=config.num_partitions, num_dests=config.num_sms,
            latency=config.crossbar_latency,
            credits_per_source=config.icnt_credits_per_partition, name="resp")
        self.partitions = [MemoryPartition(p, config, self.stats)
                           for p in range(config.num_partitions)]
        #: which memory partition serves a block for an SM (the global
        #: or the semi-global L2 mapping, chosen once here).
        self.partition_of = config.partition_map()
        self.sms = [SMCore(i, config, self.stats, self.req_icnt,
                           self._cta_finished,
                           partition_map=self.partition_of)
                    for i in range(config.num_sms)]
        self._scheduler = None
        #: ``id(instructions) -> (instructions, IssueTable)``: one decode
        #: per kernel; holding the list keeps its id from being reused
        self._issue_tables: Dict[int, Tuple[list, IssueTable]] = {}
        #: CTAs of the running launch not yet finished, resident or not
        self._ctas_left = 0
        self._cta_traces: Dict[int, List] = {}

    # -- CTA flow ------------------------------------------------------------

    def _max_ctas_per_sm(self, launch_trace):
        threads = launch_trace.config.threads_per_cta
        limit = min(self.config.max_ctas_per_sm,
                    max(1, self.config.max_threads_per_sm // max(threads, 1)))
        if launch_trace.shared_size > 0:
            limit = min(limit, max(
                1, self.config.shared_mem_per_sm // launch_trace.shared_size))
        return max(1, limit)

    def _cta_finished(self, sm_id, cta_id):
        self._ctas_left -= 1
        if self._scheduler is None:
            return
        nxt = self._scheduler.next_for(sm_id)
        if nxt is not None:
            self.sms[sm_id].assign_cta(nxt, self._cta_traces[nxt])

    # -- launch replay ----------------------------------------------------------

    def run_launch(self, launch_trace, classification=None):
        """Replay one kernel launch to completion.

        Parameters
        ----------
        launch_trace:
            A :class:`repro.emulator.columnar.ColumnarLaunchTrace`.
        classification:
            The kernel's :class:`ClassificationResult` (or a plain
            ``{pc: "D"/"N"}`` mapping); loads without a classification are
            tallied under the ``"other"`` class.
        """
        pc_classes = pc_class_map(classification)
        insts = launch_trace.instructions
        cached = self._issue_tables.get(id(insts))
        if cached is None:
            cached = self._issue_tables[id(insts)] = (
                insts, IssueTable(insts))
        issue_table = cached[1]
        memory_plan = MemoryPlan(launch_trace, self.config)
        for sm in self.sms:
            sm.kernel_name = launch_trace.kernel_name
            sm.pc_classes = pc_classes
            sm.issue_table = issue_table
            sm.memory_plan = memory_plan

        by_cta: Dict[int, List] = {}
        for warp in launch_trace.warps:
            by_cta.setdefault(warp.cta_id, []).append(warp)
        cta_ids = sorted(by_cta)
        self._cta_traces = by_cta
        self._scheduler = make_scheduler(
            self.config.cta_policy, cta_ids, self.config.num_sms)

        start_cycle = self.now
        with tracing.span("simulate.launch",
                          kernel=launch_trace.kernel_name,
                          ctas=len(cta_ids)) as sp:
            # initial fill: deal CTAs round-robin across SMs until the
            # per-SM slot limit is reached (matching hardware launch
            # behaviour)
            slots = self._max_ctas_per_sm(launch_trace)
            for _round in range(slots):
                for sm in self.sms:
                    if self._scheduler.remaining == 0:
                        break
                    if sm.resident_ctas >= slots:
                        continue
                    nxt = self._scheduler.next_for(sm.sm_id)
                    if nxt is None:
                        break
                    sm.assign_cta(nxt, by_cta[nxt])

            self._run_until_drained()
            sp.set(cycles=self.now - start_cycle)
        self._scheduler = None
        self._cta_traces = {}
        return self.stats

    def run_application(self, app_trace, classifications, rewrite=None):
        """Replay every launch of an application, in order.

        ``classifications`` maps kernel name to its
        :class:`ClassificationResult`.  ``rewrite``, when given, is a
        trace transform ``rewrite(launch, classification) -> launch``
        applied to one launch at a time just before it replays (the
        :mod:`repro.optim` warp-split and coalescing studies), so no
        more than one rewritten launch is alive at once.
        """
        for launch in app_trace:
            classification = classifications.get(launch.kernel_name)
            if rewrite is not None:
                launch = rewrite(launch, classification)
            self.run_launch(launch, classification)
        return self.stats

    # -- main loop ------------------------------------------------------------------

    def _run_until_drained(self):
        """Run until every CTA of the launch has finished.

        Only the launch's live SMs are scanned or ticked:
        :meth:`_cta_finished` refills only the SM that retired a CTA, so
        an SM that after the initial fill holds no CTA, has no wake and
        no L1 miss in flight stays idle to the end of the launch.  (A
        miss in flight keeps an SM live because its response wakes the
        SM for one tick.)  ``part_wake`` and ``sm_wake`` hold the
        earliest ``wake_at`` of the partitions and of the live SMs: a
        delivery can only lower them, and the walk over a due group
        ticks its due members in index order and recomputes the
        group's wake.
        """
        sms, partitions = self.sms, self.partitions
        live = [sm for sm in sms
                if sm.ctas or sm.wake_at < inf or sm.l1.mshr.occupancy]
        req_icnt, resp_icnt = self.req_icnt, self.resp_icnt
        req_pending, resp_pending = req_icnt.pending, resp_icnt.pending
        now = self.now
        budget = now + self.max_cycles
        scheduler = self._scheduler
        # resident plus unassigned; _cta_finished counts it down
        self._ctas_left = sum(len(sm.ctas) for sm in sms) + (
            scheduler.remaining if scheduler is not None else 0)
        part_wake = min(p.wake_at for p in partitions)
        sm_wake = min([sm.wake_at for sm in live], default=inf)
        while self._ctas_left:
            wake = part_wake if part_wake < sm_wake else sm_wake
            if req_pending and req_pending[0][0] < wake:
                wake = req_pending[0][0]
            if resp_pending and resp_pending[0][0] < wake:
                wake = resp_pending[0][0]
            if wake == inf:
                raise SimulationError(
                    "deadlock at cycle %d: no component has pending events"
                    % now, state=self.debug_state())
            # the clock moves at least one cycle on
            now = self.now = now + 1 if wake <= now else wake
            if now > budget:
                raise SimulationError(
                    "cycle budget exceeded (%d cycles)" % self.max_cycles,
                    state=self.debug_state())
            if req_pending and req_pending[0][0] <= now:
                for req, dst in req_icnt.deliver_ready(now):
                    partition = partitions[dst]
                    partition.receive(req, now)
                    if partition.wake_at < part_wake:
                        part_wake = partition.wake_at
                    sm = sms[req.sm_id]
                    sm.credit_returned(now)
                    if sm.wake_at < sm_wake:
                        sm_wake = sm.wake_at
            if resp_pending and resp_pending[0][0] <= now:
                for req, dst in resp_icnt.deliver_ready(now):
                    sm = sms[dst]
                    sm.receive_response(req, now)
                    if sm.wake_at < sm_wake:
                        sm_wake = sm.wake_at
                    partition = partitions[req.partition]
                    partition.credit_returned(now)
                    if partition.wake_at < part_wake:
                        part_wake = partition.wake_at
            if part_wake <= now:
                part_wake = inf
                for partition in partitions:
                    if partition.wake_at <= now:
                        partition.cycle(now, resp_icnt)
                    if partition.wake_at < part_wake:
                        part_wake = partition.wake_at
            if sm_wake <= now:
                sm_wake = inf
                for sm in live:
                    if sm.wake_at <= now:
                        sm.cycle(now)
                    if sm.wake_at < sm_wake:
                        sm_wake = sm.wake_at
        self._drained()

    def _drained(self):
        """Close a drained launch: settle every SM's slept cycles and
        copy the cycle and network totals into the statistics."""
        for sm in self.sms:
            sm.settle(self.now + 1)
        self.stats.cycles = self.now
        self.stats.icnt_injected = (self.req_icnt.total_injected
                                    + self.resp_icnt.total_injected)
        self.stats.icnt_queue_delay = (self.req_icnt.total_queue_delay
                                       + self.resp_icnt.total_queue_delay)

    def debug_state(self):
        """Structured snapshot of every component's in-flight state, for
        deadlock and budget-exhaustion reports."""
        return {
            "cycle": self.now,
            "interconnects": [self.req_icnt.debug_state(),
                              self.resp_icnt.debug_state()],
            "partitions": [p.debug_state() for p in self.partitions],
            "sms": [sm.debug_state() for sm in self.sms],
            "unassigned_ctas": (self._scheduler.remaining
                                if self._scheduler is not None else 0),
        }

    def publish_metrics(self, registry=None, include_stats=True, **labels):
        """Publish the machine's telemetry into a metrics registry.

        Covers the aggregate :class:`SimStats` (via the
        :mod:`repro.obs.bridge` shim, when an ``app`` label is given)
        plus per-component series the aggregate cannot express:
        per-partition L2/DRAM counts, per-direction interconnect
        telemetry, and per-SM/L2 MSHR high-water marks.

        ``include_stats=False`` publishes only the per-component series
        — for callers (the experiment runner) that publish the
        aggregate separately through :func:`~repro.obs.bridge.publish_result`.
        """
        from ..obs import bridge
        from ..obs.metrics import get_registry

        reg = registry if registry is not None else get_registry()
        app = labels.get("app")
        if include_stats and app is not None:
            bridge.publish_sim(app, self.stats, reg)
        self.req_icnt.publish_metrics(reg, **labels)
        self.resp_icnt.publish_metrics(reg, **labels)
        for partition in self.partitions:
            partition.publish_metrics(reg, **labels)
        for sm in self.sms:
            sm.l1.mshr.publish_metrics(reg, level="l1", sm=str(sm.sm_id),
                                       **labels)
        return reg
