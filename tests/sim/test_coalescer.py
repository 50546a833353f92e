"""Unit and property tests for the memory coalescer."""

import pytest
from hypothesis import given, strategies as st

from repro.emulator.columnar import KIND_NONE
from repro.emulator.trace import ApplicationTrace, TraceOp
from repro.profiling.irregularity import measure_irregularity
from repro.profiling.trace_profile import profile_trace
from repro.ptx.isa import PC_STRIDE, DType, Instruction, MemRef, Reg, Space
from repro.sim import GPU, TINY
from repro.sim.coalescer import (
    coalesce_addresses, coalesce_table, coalescing_degree)

from tests.traces import build_launch


def lanes(addrs):
    return [(i, a) for i, a in enumerate(addrs)]


class TestCoalescing:
    def test_fully_coalesced_warp(self):
        # 32 consecutive 4-byte accesses in one 128 B block -> 1 request
        addrs = lanes(range(0x1000, 0x1000 + 128, 4))
        assert coalesce_addresses(addrs) == [0x1000]

    def test_fully_scattered_warp(self):
        # each lane in its own block -> 32 requests
        addrs = lanes(range(0x1000, 0x1000 + 32 * 128, 128))
        assert len(coalesce_addresses(addrs)) == 32

    def test_two_blocks(self):
        addrs = lanes(range(0x1000, 0x1000 + 256, 8))
        assert coalesce_addresses(addrs) == [0x1000, 0x1080]

    def test_unaligned_access_straddles(self):
        # a 4-byte access at block_end-2 touches two blocks
        assert coalesce_addresses([(0, 0x1000 + 126)]) == [0x1000, 0x1080]

    def test_duplicate_addresses_merge(self):
        addrs = [(0, 0x2000), (1, 0x2000), (2, 0x2004)]
        assert coalesce_addresses(addrs) == [0x2000]

    def test_empty(self):
        assert coalesce_addresses([]) == []

    def test_result_sorted_and_aligned(self):
        addrs = [(0, 0x5555), (1, 0x1234), (2, 0x9999)]
        blocks = coalesce_addresses(addrs)
        assert blocks == sorted(blocks)
        assert all(b % 128 == 0 for b in blocks)

    def test_degree(self):
        addrs = lanes(range(0x1000, 0x1000 + 128, 4))
        n_req, n_lanes = coalescing_degree(addrs)
        assert (n_req, n_lanes) == (1, 32)


class TestCoalescingProperties:
    @given(st.lists(st.integers(0, 1 << 20), min_size=1, max_size=32))
    def test_request_count_bounds(self, raw):
        addrs = lanes(raw)
        blocks = coalesce_addresses(addrs)
        # at least one block; at most two per lane (straddling)
        assert 1 <= len(blocks) <= 2 * len(raw)

    @given(st.lists(st.integers(0, 1 << 20), min_size=1, max_size=32))
    def test_every_lane_covered(self, raw):
        addrs = lanes(raw)
        blocks = set(coalesce_addresses(addrs))
        for _lane, addr in addrs:
            assert (addr // 128) * 128 in blocks

    @given(st.lists(st.integers(0, 1 << 20), min_size=1, max_size=32),
           st.integers(0, 10))
    def test_permutation_invariant(self, raw, seed):
        import random
        shuffled = list(raw)
        random.Random(seed).shuffle(shuffled)
        assert (coalesce_addresses(lanes(raw))
                == coalesce_addresses(lanes(shuffled)))

    @given(st.lists(st.integers(0, 1 << 16), min_size=1, max_size=32))
    def test_degree_matches_coalesce(self, raw):
        addrs = lanes(raw)
        n_req, n_lanes = coalescing_degree(addrs)
        assert n_req == len(coalesce_addresses(addrs))
        assert n_lanes == len(raw)


def vector_load(vector, pc=0):
    inst = Instruction(opcode="ld", dtype=DType.U32, space=Space.GLOBAL,
                       vector=vector,
                       dests=tuple(Reg("%%r%d" % i) for i in range(vector)),
                       srcs=(MemRef(Reg("%rd1")),))
    inst.pc = pc
    return inst


class TestOneCoalescingRule:
    """Every trace profile coalesces like the timing model: the access
    width comes from the instruction, and an access that crosses a line
    touches both lines."""

    @staticmethod
    def assert_table_matches_per_op(ops, line_size):
        """``ops``: ``[(vector, [addr, ...])]``, one u32 warp load each."""
        insts = {v: vector_load(v, pc=i * PC_STRIDE)
                 for i, v in enumerate((1, 2, 4))}
        launch = build_launch([(0, 0, [
            TraceOp(insts[v], (1 << len(addrs)) - 1, tuple(enumerate(addrs)))
            for v, addrs in ops])])
        got = coalesce_table(launch, launch.kind != KIND_NONE, line_size)
        assert got.rows.tolist() == list(range(len(ops)))
        for i, (v, addrs) in enumerate(ops):
            want = [block // line_size for block in coalesce_addresses(
                enumerate(addrs), line_size=line_size, access_size=4 * v)]
            assert got.pair_lines[got.pair_ops == i].tolist() == want
            assert (got.lines[i], got.lanes[i]) == (len(want), len(addrs))

    @given(st.lists(st.tuples(st.sampled_from((1, 2, 4)),
                              st.lists(st.integers(0, 1 << 12),
                                       max_size=8)),
                    min_size=1, max_size=6),
           st.sampled_from((8, 32, 128)))
    def test_table_matches_per_op_coalescer(self, ops, line_size):
        self.assert_table_matches_per_op(ops, line_size)

    def test_lines_too_far_apart_to_pack(self):
        # four ops spanning 2**62 lines overflow an int64 (op, line) key
        self.assert_table_matches_per_op([(1, [1 << 62, 0])] * 4, 1)

    @pytest.fixture
    def crossing(self):
        # one lane's 8 B access at byte 124 covers lines 0 and 1
        app = ApplicationTrace("t")
        app.add(build_launch([(0, 0, [
            TraceOp(vector_load(2), 1, ((0, 124),))])]))
        return app

    def test_vector_access_across_a_line_counts_two_lines(self, crossing):
        classes = {"k": {0: "N"}}
        gpu = GPU(TINY)
        gpu.run_application(crossing, classes)
        assert gpu.stats.classes["N"].requests == 2
        profile = profile_trace(crossing, classes)
        assert profile.coalescing.histogram["N"] == {2: 1}
        locality = profile.locality
        assert (locality.total_accesses, locality.num_blocks) == (2, 2)
        heat = profile.heatmap
        assert heat.total_touches == 2
        assert heat.pcs[("k", 0)].line_touches == 2
        # one line would hold the 8 B, two are touched
        irregularity = measure_irregularity(crossing)
        assert irregularity.memory_access_irregularity == pytest.approx(0.5)
