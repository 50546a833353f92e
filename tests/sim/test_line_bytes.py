"""The repo-wide LINE_BYTES constant and its propagation.

Regression suite for the hoist of the memory-line granularity into
:data:`repro.sim.config.LINE_BYTES`: the coalescer, the trace profile
(locality and heat map) and the trace transforms must all agree on the
default *and* honor a non-default line size end to end.
"""

from repro.emulator.grid import make_launch
from repro.emulator.trace import TraceOp
from repro.optim.coalesce_oracle import coalesce_op
from repro.optim.warp_split import split_op
from repro.profiling.trace_profile import TraceProfiler
from repro.ptx.isa import DType, Instruction, MemRef, Reg, Space
from repro.sim.coalescer import coalesce_addresses, coalescing_degree
from repro.sim.config import LINE_BYTES, TESLA_C2050, TINY

from tests.traces import build_launch


def load_op(addrs, pc=8):
    inst = Instruction(opcode="ld", dtype=DType.U32, space=Space.GLOBAL,
                       dests=(Reg("%r1"),),
                       srcs=(MemRef(Reg("%rd1")),))
    inst.pc = pc
    mask = (1 << len(addrs)) - 1
    return TraceOp(inst, mask,
                   tuple((lane, a) for lane, a in enumerate(addrs)))


class TestSingleSource:
    def test_default_is_128(self):
        assert LINE_BYTES == 128

    def test_configs_inherit_the_constant(self):
        assert TESLA_C2050.l1_line_size == LINE_BYTES
        assert TESLA_C2050.l2_line_size == LINE_BYTES
        assert TINY.l1_line_size == LINE_BYTES

    def test_locality_alias(self):
        assert TraceProfiler().line_bytes == LINE_BYTES
        assert TraceProfiler().report().heatmap.line_bytes == LINE_BYTES


class TestPropagation:
    """The same access pattern under line size 128 vs 32: four words
    spread 32 B apart fit one 128 B line but four 32 B lines."""

    ADDRS = [0, 32, 64, 96]

    def test_coalescer_honors_line_size(self):
        pairs = list(enumerate(self.ADDRS))
        assert len(coalesce_addresses(pairs)) == 1
        assert len(coalesce_addresses(pairs, line_size=32)) == 4
        assert coalescing_degree(pairs) == (1, 4)
        assert coalescing_degree(pairs, line_size=32) == (4, 4)

    def test_locality_analyzer_honors_block_size(self):
        def count_blocks(block_size):
            launch = build_launch([(0, 0, [load_op(self.ADDRS)])],
                                  config=make_launch(8, 32))
            profiler = TraceProfiler(block_size)
            profiler.analyze_launch(launch)
            return profiler.report().locality.num_blocks

        assert count_blocks(LINE_BYTES) == 1
        assert count_blocks(32) == 4

    def test_heatmap_honors_line_bytes(self):
        launch = build_launch([(0, 0, [load_op(self.ADDRS)])],
                              config=make_launch(8, 32))
        narrow = TraceProfiler(line_bytes=32)
        narrow.analyze_launch(launch)
        assert narrow.report().heatmap.num_lines == 4

    def test_split_op_honors_line_bytes(self):
        op = load_op(self.ADDRS)
        # one 128 B block: nothing to split
        assert split_op(op, max_requests=2) == [op]
        # four 32 B blocks: two sub-warps of two blocks each
        parts = split_op(op, max_requests=2, line_bytes=32)
        assert len(parts) == 2
        for p in parts:
            assert len({a // 32 for _l, a in p.addresses}) <= 2

    def test_coalesce_op_honors_line_bytes(self):
        scattered = load_op([0, 256, 512, 768])
        packed = coalesce_op(scattered)
        assert len({a // LINE_BYTES for _l, a in packed.addresses}) == 1
        packed32 = coalesce_op(load_op([0, 64, 128, 192]), line_bytes=32)
        assert len({a // 32 for _l, a in packed32.addresses}) == 1

    def test_simulator_coalesces_by_config_line_size(self, bfs_run):
        """End to end: halving l1_line_size cannot reduce the request
        count the timing model observes."""
        from repro.sim.gpu import GPU

        def requests(config):
            gpu = GPU(config)
            for launch in bfs_run.trace:
                gpu.run_launch(
                    launch,
                    bfs_run.classifications.get(launch.kernel_name))
            return sum(c.requests for c in gpu.stats.classes.values())

        wide = requests(TINY)
        narrow = requests(TINY.scaled(l1_line_size=64, l2_line_size=64))
        assert narrow >= wide
        assert narrow > 0


class TestKnobOverride:
    def test_scaled_override_is_local(self):
        custom = TINY.scaled(l1_line_size=256)
        assert custom.l1_line_size == 256
        assert TINY.l1_line_size == LINE_BYTES
        assert LINE_BYTES == 128
