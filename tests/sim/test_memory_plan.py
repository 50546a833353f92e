"""The timing model's memory plan against the per-op rules.

Every memory op the simulator issues takes its requests, its lane count
and its shared-port cycles from the launch's
:class:`~repro.sim.coalescer.MemoryPlan`, built in one pass before the
launch replays.  These tests replay launches with the SM's memory-issue
hook wrapped and check each issued op against the one-op-at-a-time
rules over the record view: :func:`coalesce_addresses` for the L1-path
ops and :func:`reference_port_cycles` for shared ones.
"""

import pytest

from repro.emulator.trace import TraceOp
from repro.ptx.isa import (
    PC_STRIDE, DType, Instruction, MemRef, Reg, Space, Sym)
from repro.sim import GPU, TINY
from repro.sim.coalescer import MemoryPlan, coalesce_addresses
from repro.sim.core import SMCore
from repro.sim.stats import SimStats
from repro.workloads import get_workload

from tests.traces import build_launch

L1_SPACES = (Space.GLOBAL, Space.LOCAL, Space.TEX)


def reference_port_cycles(addresses, config):
    """LD/ST port cycles of one shared access, one lane at a time: the
    worst bank's count of distinct words (lanes reading one word share
    a broadcast)."""
    banks = {}
    for _lane, addr in addresses:
        word = addr // config.shared_bank_width
        banks.setdefault(word % config.shared_banks, set()).add(word)
    return max((len(words) for words in banks.values()), default=1)


def replay(launches, config, monkeypatch, classifications=None):
    """Replay ``launches`` and return one ``(op, blocks, lanes, port)``
    per issued memory op: its record-view op, the block addresses of
    the requests the SM made, the lane count it recorded for a load
    (None otherwise) and the port cycles it charged."""
    issued = []
    recorded = []
    issue = SMCore._issue_memory
    record = SimStats.record_coalescing

    def record_spy(stats, load_class, n_requests, n_active):
        recorded.append(n_active)
        return record(stats, load_class, n_requests, n_active)

    def issue_spy(sm, warp, inst, writes, now):
        before = len(recorded)
        issue(sm, warp, inst, writes, now)
        inflight = sm.ldst_queue[-1]
        issued.append((warp.trace.ops[warp.ptr],
                       [req.block_addr for req in inflight.pending],
                       recorded[-1] if len(recorded) > before else None,
                       inflight.port_cycles))

    monkeypatch.setattr(SMCore, "_issue_memory", issue_spy)
    monkeypatch.setattr(SimStats, "record_coalescing", record_spy)
    gpu = GPU(config)
    for launch in launches:
        gpu.run_launch(launch, (classifications or {}).get(
            launch.kernel_name))
    return issued


def check_against_reference(issued, launches, config):
    """Every memory op of ``launches`` issued once, as the per-op rules
    say; returns the issued ops."""
    expected = sum(1 for launch in launches for warp in launch.warps
                   for op in warp.ops if op.inst.is_memory)
    assert len(issued) == expected
    for op, blocks, lanes, port in issued:
        inst = op.inst
        addresses = op.addresses or ()
        if inst.space in L1_SPACES:
            assert blocks == coalesce_addresses(
                addresses, config.l1_line_size, inst.access_bytes), op
            assert port == 1
        else:
            assert blocks == []
            want = (reference_port_cycles(addresses, config)
                    if inst.space is Space.SHARED else 1)
            assert port == want, op
        assert lanes == (len(addresses) if inst.is_load
                         and inst.space in L1_SPACES else None)
    return [op for op, *_rest in issued]


@pytest.fixture(scope="module", params=["histo", "sssp", "mst"])
def workload_run(request):
    return get_workload(request.param, scale=0.1).run(verify=False)


class TestWorkloads:
    def test_every_issued_op_matches_the_per_op_rules(self, workload_run,
                                                      monkeypatch):
        launches = list(workload_run.trace)
        issued = replay(launches, TINY, monkeypatch,
                        workload_run.classifications)
        ops = check_against_reference(issued, launches, TINY)
        global_ops = [op for op in ops if op.inst.space is Space.GLOBAL]
        assert any(op.inst.is_load and op.addresses for op in global_ops)
        assert any(op.inst.is_store and op.addresses for op in global_ops)
        assert any(op.inst.is_atomic and op.addresses for op in global_ops)

    def test_plan_rows_are_each_warps_ops(self, workload_run):
        for launch in workload_run.trace:
            plan = MemoryPlan(launch, TINY)
            row = 0
            for warp in launch.warps:
                assert warp.base == row
                for op in warp.ops:
                    assert plan.lanes[row] == len(op.addresses or ())
                    row += 1
            assert len(plan.kind) == row


def ld(space, vector=1, pc=0, dtype=DType.U32):
    inst = Instruction(opcode="ld", dtype=dtype, space=space, vector=vector,
                       dests=tuple(Reg("%%r%d" % (pc // PC_STRIDE * 4 + i))
                                   for i in range(vector)),
                       srcs=(MemRef(Reg("%rd1")),))
    inst.pc = pc
    return inst


def st_global(pc):
    inst = Instruction(opcode="st", dtype=DType.U32, space=Space.GLOBAL,
                       srcs=(MemRef(Reg("%rd1")), Reg("%r0")))
    inst.pc = pc
    return inst


def ld_param(pc):
    inst = Instruction(opcode="ld", dtype=DType.U64, space=Space.PARAM,
                       dests=(Reg("%rd9"),), srcs=(MemRef(Sym("p")),))
    inst.pc = pc
    return inst


def hand_built_launch():
    """One warp issuing each corner of the plan once, in pc order."""
    pcs = iter(range(0, 64 * PC_STRIDE, PC_STRIDE))
    full = (1 << 32) - 1
    ops = [
        # an 8 B access at byte 124 covers lines 0 and 1
        TraceOp(ld(Space.GLOBAL, 2, next(pcs)), 1, ((0, 124),)),
        # 16 B accesses: one crosses into line 2, one stays in line 3
        TraceOp(ld(Space.GLOBAL, 4, next(pcs)), 3,
                ((0, 0x100 - 8), (1, 0x180))),
        # every lane predicated off
        TraceOp(ld(Space.GLOBAL, 1, next(pcs)), 0, ()),
        # a parameter read records no access at all
        TraceOp(ld_param(next(pcs)), full),
        TraceOp(st_global(next(pcs)), 3, ((0, 0x400), (1, 0x404)),
                (7, 8)),
        # 32 lanes, one bank, 32 different words
        TraceOp(ld(Space.SHARED, 1, next(pcs)), full,
                tuple((lane, lane * 128) for lane in range(32))),
        # 32 lanes reading one word broadcast
        TraceOp(ld(Space.SHARED, 1, next(pcs)), full,
                tuple((lane, 64) for lane in range(32))),
        # two words in bank 0, one read twice; one word in bank 1
        TraceOp(ld(Space.SHARED, 1, next(pcs)), 15,
                ((0, 0), (1, 0), (2, 128), (3, 4))),
        TraceOp(ld(Space.SHARED, 1, next(pcs)), 0, ()),
        TraceOp(ld(Space.LOCAL, 1, next(pcs)), 3, ((0, 0x40), (1, 0x2000))),
        TraceOp(ld(Space.GLOBAL, 1, next(pcs)), full,
                tuple((lane, 0x1000 + 4 * lane) for lane in range(32))),
    ]
    return build_launch([(0, 0, ops)])


class TestHandBuilt:
    def test_corner_ops_match_the_per_op_rules(self, monkeypatch):
        launch = hand_built_launch()
        issued = replay([launch], TINY, monkeypatch)
        check_against_reference(issued, [launch], TINY)
        by_pc = {op.pc: (blocks, lanes, port)
                 for op, blocks, lanes, port in issued}
        p = PC_STRIDE
        assert by_pc[0] == ([0, 128], 1, 1)
        assert by_pc[p] == ([128, 256, 384], 2, 1)
        assert by_pc[2 * p] == ([], 0, 1)
        assert by_pc[3 * p] == ([], None, 1)
        assert by_pc[4 * p] == ([0x400], None, 1)
        assert [by_pc[i * p][2] for i in (5, 6, 7, 8)] == [32, 1, 2, 1]

    def test_wider_lines(self, monkeypatch):
        config = TINY.scaled(l1_line_size=256)
        launch = hand_built_launch()
        issued = replay([launch], config, monkeypatch)
        check_against_reference(issued, [launch], config)

    def test_more_banks(self, monkeypatch):
        config = TINY.scaled(shared_banks=64, shared_bank_width=8)
        launch = hand_built_launch()
        issued = replay([launch], config, monkeypatch)
        check_against_reference(issued, [launch], config)

    def test_oracle_looks_past_a_load_without_a_record(self, monkeypatch):
        # the indirect oracle skips an N load that recorded no access
        # and prefetches the blocks of the next N load that did
        p = PC_STRIDE
        launch = build_launch([(0, 0, [
            TraceOp(ld(Space.GLOBAL, 1, 0), 1, ((0, 0x1000),)),
            TraceOp(ld(Space.GLOBAL, 1, p), 1),
            TraceOp(ld(Space.GLOBAL, 1, 2 * p), 1, ((0, 0x2000),))])])
        pushed = []
        push = SMCore._pf_push
        monkeypatch.setattr(SMCore, "_pf_push", lambda sm, block: (
            pushed.append(block), push(sm, block)))
        gpu = GPU(TINY.scaled(prefetcher="indirect_oracle"))
        gpu.run_launch(launch, dict.fromkeys((0, p, 2 * p), "N"))
        assert pushed == [0x2000, 0x2000]

    def test_access_without_a_record_is_an_empty_row(self):
        # a hand-built global load with no recorded addresses (what a
        # parameter read records): no request, no lane
        inst = ld(Space.GLOBAL)
        launch = build_launch([(0, 0, [TraceOp(inst, 1)])])
        plan = MemoryPlan(launch, TINY)
        assert launch.warps[0].base == 0
        assert plan.requests(0) == []
        assert plan.lanes[0] == 0
        assert plan.port[0] == 1
        gpu = GPU(TINY)
        gpu.run_launch(launch)
        assert gpu.stats.issued_warp_insts == 1
        assert gpu.stats.icnt_injected == 0
