"""The wake-time simulator loop against a per-cycle oracle.

:class:`PerCycle` replaces the GPU's loop with the plain cycle-by-cycle
tick: both networks deliver and every SM and memory partition ticks on
every cycle, so no component ever sleeps across a cycle and no slept
cycle is ever accounted in bulk.  The real loop must reproduce its
statistics and registry snapshot exactly — over the golden matrix, and
over tiny configurations that make L1 retries, credit starvation and
unit contention the common case.  Every oracle run also counts the
component ticks, so the comparison cannot quietly pit the fast loop
against itself.

The fast loop ticks only a launch's live SMs.  Two tests pin that rule:
a crafted pair of launches in which an SM without a CTA must still
issue a prefetch queued in the launch before, and a tick count on bfs
showing that an idle SM is never ticked.
"""

import contextlib
from collections import Counter
from math import inf

import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.emulator.grid import make_launch
from repro.emulator.trace import TraceOp
from repro.experiments.runner import BENCH_CONFIG
from repro.ptx.isa import PC_STRIDE, DType, Instruction, MemRef, Reg, Space
from repro.sim.config import TINY
from repro.sim.core import SMCore
from repro.sim.gpu import GPU, SimulationError
from repro.sim.memory_partition import MemoryPartition
from tests.sim_matrix import (
    ISSUE_CASES, SIM_CASES, VARIANT_APPS, make_gpu, sim_document, simulate)
from tests.traces import build_launch


class PerCycle:
    """GPU mixin: the plain loop, every component ticks on every cycle."""

    def _run_until_drained(self):
        start = self.now
        sms, partitions = self.sms, self.partitions
        while any(sm.ctas for sm in sms) or (
                self._scheduler is not None and self._scheduler.remaining):
            self.now += 1
            now = self.now
            if now - start > self.max_cycles:
                raise SimulationError("oracle cycle budget exceeded")
            for req, dst in self.req_icnt.deliver_ready(now):
                partitions[dst].receive(req, now)
                sms[req.sm_id].credit_returned(now)
            for req, dst in self.resp_icnt.deliver_ready(now):
                sms[dst].receive_response(req, now)
                partitions[req.partition].credit_returned(now)
            for partition in partitions:
                partition.cycle(now, self.resp_icnt)
            for sm in sms:
                sm.cycle(now)
        self._drained()


@contextlib.contextmanager
def counting_ticks(counts):
    """Count ``SMCore.cycle`` and ``MemoryPartition.cycle`` calls into
    ``counts``, keyed by class."""
    originals = {cls: cls.cycle for cls in (SMCore, MemoryPartition)}

    def counted(cls, original):
        def cycle(self, *args):
            counts[cls] += 1
            return original(self, *args)
        return cycle

    for cls, original in originals.items():
        cls.cycle = counted(cls, original)
    try:
        yield
    finally:
        for cls, original in originals.items():
            cls.cycle = original


def assert_same_as_oracle(app, variant, config):
    fast = simulate(app, make_gpu(variant, config=config))
    oracle = make_gpu(variant, PerCycle, config=config)
    # a launch can take no longer than the whole fast run
    oracle.max_cycles = fast.now
    counts = Counter()
    marks = [(0, 0, 0)]

    def mark(gpu):
        marks.append((gpu.now, counts[SMCore], counts[MemoryPartition]))

    with counting_ticks(counts):
        slow = simulate(app, oracle, after_launch=mark)
    # per launch, the oracle ticked every SM and partition every cycle
    for (now0, sm0, part0), (now1, sm1, part1) in zip(marks, marks[1:]):
        assert sm1 - sm0 == (now1 - now0) * slow.config.num_sms
        assert part1 - part0 == (now1 - now0) * slow.config.num_partitions
    assert slow.stats.cycles == fast.stats.cycles > 0
    assert sim_document(app, slow) == sim_document(app, fast)


@pytest.mark.parametrize("app,variant", SIM_CASES + ISSUE_CASES)
def test_matrix_matches_per_cycle_oracle(app, variant):
    assert_same_as_oracle(app, variant, BENCH_CONFIG)


# no shrinking: it would rerun the slow per-cycle oracle for minutes, and
# a derandomized failure reproduces as generated
@settings(max_examples=12, deadline=None, derandomize=True,
          phases=(Phase.explicit, Phase.generate))
@given(app=st.sampled_from(VARIANT_APPS),
       variant=st.sampled_from(("base", "gto", "stride")),
       l1_mshr_entries=st.integers(1, 4),
       icnt_credits_per_sm=st.integers(1, 2),
       icnt_credits_per_partition=st.integers(1, 2),
       ldst_queue_size=st.integers(1, 2),
       issue_width=st.integers(1, 2),
       l2_mshr_entries=st.integers(1, 4))
def test_tiny_configs_match_per_cycle_oracle(app, variant, **knobs):
    assert_same_as_oracle(app, variant, TINY.scaled(**knobs))


# -- the live-SM rule ---------------------------------------------------------

FULL = (1 << 32) - 1


def _inst(pc, **fields):
    inst = Instruction(dtype=DType.U32, **fields)
    inst.pc = pc
    return inst


def queued_prefetch_launches():
    """Two launches on TINY's 2 SMs under the stride prefetcher, after
    which SM 1 must keep ticking although it gets no CTA.

    In the first launch, SM 1's CTA has three warps.  Each loads one
    global block from the same pc, one block apart, so the third load
    predicts the next block.  The warps then keep the LD/ST port busy
    with 32-way bank-conflicted shared stores until the CTA retires,
    the last of the launch, so the predicted block is still queued.
    The second launch has one CTA, which goes to SM 0.
    """
    load = _inst(0, opcode="ld", space=Space.GLOBAL, dests=(Reg("%r1"),),
                 srcs=(MemRef(Reg("%rd1")),))
    store = _inst(PC_STRIDE, opcode="st", space=Space.SHARED,
                  srcs=(MemRef(Reg("%rd2")), Reg("%r0")))
    add = _inst(2 * PC_STRIDE, opcode="add", dests=(Reg("%r2"),),
                srcs=(Reg("%r3"), Reg("%r4")))
    conflicted = TraceOp(store, FULL,
                         tuple((lane, lane * 128) for lane in range(32)),
                         (0,) * 32)
    busy = [(1, warp, [TraceOp(load, FULL, tuple(
        (lane, warp * 128 + 4 * lane) for lane in range(32)))]
        + [conflicted] * 10) for warp in range(3)]
    first = build_launch([(0, 0, [TraceOp(add, FULL)])] + busy,
                         config=make_launch(2, 96), shared_size=4096)
    second = build_launch([(0, 0, [TraceOp(add, FULL)])],
                          config=make_launch(1, 32))
    return first, second


def test_sm_without_cta_drains_prefetches_queued_in_the_last_launch():
    config = TINY.scaled(prefetcher="stride")
    first, second = queued_prefetch_launches()
    fast = GPU(config)
    fast.run_launch(first)
    # the case holds: SM 1 ends the launch with a prefetch queued and
    # the next launch's single CTA leaves it without one
    assert not fast.sms[1].ctas and fast.sms[1]._pf_queue
    issued = fast.stats.prefetch_issued
    fast.run_launch(second)
    assert not fast.sms[1].ctas
    oracle = type("PerCycleGPU", (PerCycle, GPU), {})(config)
    for launch in (first, second):
        oracle.run_launch(launch)
    assert sim_document("crafted", oracle) == sim_document("crafted", fast)
    # ... and the queued prefetch issued in the second launch
    assert fast.stats.prefetch_issued > issued


class IdleProbe:
    """GPU mixin: per launch, the SMs that after the initial fill hold
    no CTA, have no wake and no L1 miss in flight."""

    def _run_until_drained(self):
        self.idle.append({sm.sm_id for sm in self.sms
                          if not sm.ctas and sm.wake_at == inf
                          and not sm.l1.mshr.occupancy})
        super()._run_until_drained()


def test_sm_with_no_cta_and_no_wake_is_never_ticked():
    gpu = make_gpu("base", IdleProbe)
    gpu.idle = []
    ticks = []   # per SM tick: (launch index, SM id)
    original = SMCore.cycle

    def cycle(sm, now):
        ticks.append((len(gpu.idle) - 1, sm.sm_id))
        return original(sm, now)

    SMCore.cycle = cycle
    try:
        simulate("bfs", gpu)
    finally:
        SMCore.cycle = original
    per_launch = Counter(ticks)
    idle = [(launch, sm) for launch, sms in enumerate(gpu.idle)
            for sm in sms]
    # bfs has launches whose CTAs fit on fewer SMs than the machine has
    assert idle
    assert all(per_launch[key] == 0 for key in idle)
    assert sum(per_launch.values()) > 0
