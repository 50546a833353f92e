"""Unit tests for trace containers."""

from repro.emulator.grid import make_launch
from repro.emulator.trace import ApplicationTrace, TraceOp
from repro.ptx.isa import DType, Instruction, MemRef, Reg, Space

from tests.traces import build_launch


def make_load(pc_index=0, space=Space.GLOBAL):
    inst = Instruction(opcode="ld", dtype=DType.U32, space=space,
                       dests=(Reg("%r1"),),
                       srcs=(MemRef(Reg("%rd1")),))
    inst.pc = pc_index * 8
    return inst


def make_alu(pc_index=0):
    inst = Instruction(opcode="add", dtype=DType.U32,
                       dests=(Reg("%r1"),),
                       srcs=(Reg("%r2"), Reg("%r3")))
    inst.pc = pc_index * 8
    return inst


def launch_with_ops(ops_per_warp):
    return build_launch([(cta, warp, ops_per_warp)
                         for cta in range(2) for warp in range(2)],
                        config=make_launch(2, 64))


class TestTraceOp:
    def test_active_count(self):
        op = TraceOp(make_alu(), 0b1011)
        assert op.active_count == 3

    def test_memory_flag(self):
        assert TraceOp(make_load(), 1, ((0, 128),)).is_memory
        assert not TraceOp(make_alu(), 1).is_memory
        # empty address tuple still marks a memory op (all lanes off)
        assert TraceOp(make_load(), 0, ()).is_memory


class TestLaunchAggregates:
    def test_counts(self):
        ops = [TraceOp(make_alu(0), 0xFFFFFFFF),
               TraceOp(make_load(1), 0xF, ((0, 128),)),
               TraceOp(make_load(2, Space.SHARED), 0xF, ((0, 0),))]
        launch = launch_with_ops(ops)
        assert launch.total_warp_instructions() == 12
        assert launch.global_load_warp_count() == 4
        assert launch.shared_load_warp_count() == 4
        assert launch.total_thread_instructions() == 4 * (32 + 4 + 4)

    def test_dynamic_counts_by_pc(self):
        ops = [TraceOp(make_load(1), 1, ((0, 128),))]
        launch = launch_with_ops(ops)
        assert launch.dynamic_counts_by_pc() == {8: 4}

    def test_memory_table_space_filter(self):
        ops = [TraceOp(make_load(1), 1, ((0, 128),)),
               TraceOp(make_load(2, Space.SHARED), 1, ((0, 0),))]
        launch = launch_with_ops(ops)
        glob = launch.memory_table(space=Space.GLOBAL)
        shared = launch.memory_table(space=Space.SHARED)
        assert len(glob["pc"]) == 4
        assert len(shared["pc"]) == 4


class TestApplicationTrace:
    def test_aggregation_across_launches(self):
        app = ApplicationTrace("demo")
        ops = [TraceOp(make_load(1), 1, ((0, 128),))]
        app.add(launch_with_ops(ops))
        app.add(launch_with_ops(ops))
        assert len(app) == 2
        assert app.global_load_warp_count() == 8
        assert app.dynamic_counts_by_pc("k") == {8: 8}

    def test_kernel_names_deduplicated_in_order(self):
        app = ApplicationTrace("demo")
        a = launch_with_ops([])
        b = build_launch([], kernel_name="other")
        app.add(a)
        app.add(b)
        app.add(launch_with_ops([]))
        assert app.kernel_names() == ["k", "other"]
