"""Tests for the warp-level irregularity metrics (Burtscher-style)."""

import pytest

from repro.emulator.trace import ApplicationTrace, TraceOp
from repro.profiling.irregularity import measure_irregularity
from repro.ptx.isa import DType, Instruction, MemRef, Reg, Space
from repro.sim.coalescer import coalescing_degree

from tests.traces import build_launch


def alu(mask):
    inst = Instruction(opcode="add", dtype=DType.U32,
                       dests=(Reg("%r1"),), srcs=(Reg("%r2"), Reg("%r3")))
    inst.pc = 0
    return TraceOp(inst, mask)


def load(addresses):
    inst = Instruction(opcode="ld", dtype=DType.U32, space=Space.GLOBAL,
                       dests=(Reg("%r1"),), srcs=(MemRef(Reg("%rd1")),))
    inst.pc = 8
    mask = 0
    for lane, _a in addresses:
        mask |= 1 << lane
    return TraceOp(inst, mask, tuple(addresses))


def app_with(ops):
    app = ApplicationTrace("t")
    app.add(build_launch([(0, 0, ops)]))
    return app


FULL = (1 << 32) - 1


class TestControlFlowIrregularity:
    def test_full_warps_are_regular(self):
        report = measure_irregularity(app_with([alu(FULL), alu(FULL)]))
        assert report.control_flow_irregularity == pytest.approx(0.0)
        assert report.mean_active_lanes == 32.0

    def test_half_warps(self):
        report = measure_irregularity(app_with([alu(0xFFFF)]))
        assert report.control_flow_irregularity == pytest.approx(0.5)

    def test_empty_trace(self):
        report = measure_irregularity(app_with([]))
        assert report.control_flow_irregularity == 0.0
        assert report.memory_access_irregularity == 0.0


class TestMemoryAccessIrregularity:
    def test_coalesced_access_is_regular(self):
        addrs = [(lane, lane * 4) for lane in range(32)]
        report = measure_irregularity(app_with([load(addrs)]))
        assert report.memory_access_irregularity == pytest.approx(0.0)

    def test_fully_scattered_access(self):
        addrs = [(lane, lane * 128) for lane in range(32)]
        report = measure_irregularity(app_with([load(addrs)]))
        # 32 requests where 1 would do: irregularity 1 - 1/32
        assert report.memory_access_irregularity == pytest.approx(31 / 32)

    def test_single_lane_is_regular(self):
        report = measure_irregularity(app_with([load([(0, 0)])]))
        assert report.memory_access_irregularity == pytest.approx(0.0)


class TestWorkloadShapes:
    def test_graph_apps_more_irregular_than_dense(self, bfs_run,
                                                  twomm_run):
        bfs = measure_irregularity(bfs_run.trace)
        mm = measure_irregularity(twomm_run.trace)
        # Burtscher's finding (cited in related work): graph codes are
        # irregular on both axes, dense linear algebra on neither
        assert bfs.control_flow_irregularity > mm.control_flow_irregularity
        assert bfs.memory_access_irregularity > \
            mm.memory_access_irregularity

    def test_spmv_memory_irregular_control_regular(self, spmv_run,
                                                   bfs_run):
        spmv = measure_irregularity(spmv_run.trace)
        bfs = measure_irregularity(bfs_run.trace)
        # the two metrics are independent: spmv scatters memory but
        # keeps warps far fuller than bfs
        assert spmv.memory_access_irregularity > 0.1
        assert spmv.control_flow_irregularity < \
            bfs.control_flow_irregularity

    def test_matches_per_op_reference(self, spmv_run):
        """Bit-identical to the one-op-at-a-time definition, float
        summation order included."""
        insts = active = accesses = 0
        coalescing_sum = 0.0
        for launch in spmv_run.trace:
            for warp in launch.warps:
                for op in warp.ops:
                    insts += 1
                    active += op.active_count
                    inst = op.inst
                    if (op.addresses and inst.space is Space.GLOBAL
                            and (inst.is_load or inst.is_store)):
                        n_requests, n_lanes = coalescing_degree(
                            op.addresses)
                        accesses += 1
                        coalescing_sum += max(1, -(-n_lanes // 32)) \
                            / n_requests
        report = measure_irregularity(spmv_run.trace)
        assert report.warp_instructions == insts
        assert report.mean_active_lanes == active / insts
        assert report.memory_accesses == accesses
        assert report.memory_access_irregularity == \
            1.0 - coalescing_sum / accesses
