"""Tests for the Section X.A sub-warp-splitting ablation."""

from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.emulator.trace import TraceOp
from repro.optim.warp_split import compare_warp_splitting, split_launch, split_op
from repro.ptx.isa import DType, Instruction, MemRef, Reg, Space
from repro.sim.config import TINY

from tests.traces import build_launch


def nondet_load(pc=0xD8):
    inst = Instruction(opcode="ld", dtype=DType.U32, space=Space.GLOBAL,
                       dests=(Reg("%r1"),),
                       srcs=(MemRef(Reg("%rd1")),))
    inst.pc = pc
    return inst


def signed_store(pc=0x18):
    inst = Instruction(opcode="st", dtype=DType.S32, space=Space.GLOBAL,
                       srcs=(MemRef(Reg("%rd1")), Reg("%r1")))
    inst.pc = pc
    return inst


def op_with_blocks(num_blocks):
    addrs = tuple((lane, lane * 128) for lane in range(num_blocks))
    mask = 0
    for lane, _ in addrs:
        mask |= 1 << lane
    return TraceOp(nondet_load(), mask, addrs)


class TestSplitOp:
    def test_small_op_unchanged(self):
        op = op_with_blocks(3)
        assert split_op(op, max_requests=4) == [op]

    def test_split_count(self):
        op = op_with_blocks(8)
        parts = split_op(op, max_requests=4)
        assert len(parts) == 2

    def test_lanes_partitioned_exactly(self):
        op = op_with_blocks(10)
        parts = split_op(op, max_requests=4)
        all_lanes = [lane for p in parts for lane, _a in p.addresses]
        assert sorted(all_lanes) == [lane for lane, _a in op.addresses]
        combined_mask = 0
        for p in parts:
            assert combined_mask & p.active_mask == 0  # disjoint
            combined_mask |= p.active_mask
        assert combined_mask == op.active_mask

    def test_block_bound_respected(self):
        op = op_with_blocks(13)
        for p in split_op(op, max_requests=4):
            blocks = {a // 128 for _l, a in p.addresses}
            assert len(blocks) <= 4

    @given(st.lists(st.integers(0, 4096), min_size=1, max_size=32),
           st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_split_invariants_property(self, raw, max_requests):
        addrs = tuple((lane, addr) for lane, addr in enumerate(raw))
        mask = (1 << len(raw)) - 1
        op = TraceOp(nondet_load(), mask, addrs)
        parts = split_op(op, max_requests)
        assert sum(len(p.addresses) for p in parts) == len(raw)
        for p in parts:
            blocks = {a // 128 for _l, a in p.addresses}
            assert len(blocks) <= max_requests

    @given(st.lists(st.integers(0, 4096), min_size=2, max_size=32),
           st.integers(1, 4),
           st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariant_grouping(self, raw, max_requests, rng):
        """The greedy contract: the sub-warp *block partition* is a
        function of the address multiset alone — permuting which lane
        carries which address must not change how blocks group, and
        hence not the per-sub-warp distinct-block counts."""
        mask = (1 << len(raw)) - 1

        def partition(addresses):
            op = TraceOp(nondet_load(), mask, tuple(addresses))
            parts = split_op(op, max_requests)
            return [sorted({a // 128 for _l, a in p.addresses})
                    for p in parts]

        base = partition((lane, addr) for lane, addr in enumerate(raw))
        shuffled = list(raw)
        rng.shuffle(shuffled)
        permuted = partition(
            (lane, addr) for lane, addr in enumerate(shuffled))
        assert base == permuted
        assert [len(g) for g in base] == [len(g) for g in permuted]


class TestSplitLaunch:
    def test_only_nondet_loads_split(self, bfs_run):
        launch = bfs_run.trace.launches[0]
        classification = bfs_run.classifications[launch.kernel_name]
        new = split_launch(launch, classification, max_requests=1)
        assert new.total_warp_instructions() >= \
            launch.total_warp_instructions()
        # deterministic loads keep their op count
        det_pcs = {ld.pc for ld in classification.deterministic}
        for old_w, new_w in zip(launch.warps, new.warps):
            old_det = sum(1 for op in old_w.ops if op.pc in det_pcs)
            new_det = sum(1 for op in new_w.ops if op.pc in det_pcs)
            assert old_det == new_det


class TestSplitLaunchColumns:
    def test_only_n_rows_rewritten(self):
        """N-load rows become sub-warp rows in place; the D load, the
        store (values included) and an N load that recorded no access
        are copied unchanged."""
        n_op = op_with_blocks(8)
        d_load = nondet_load(pc=0x10)
        d_op = TraceOp(d_load, n_op.active_mask, n_op.addresses)
        st_op = TraceOp(signed_store(), 0b11, ((0, 64), (1, 68)), (-5, 7))
        empty = TraceOp(n_op.inst, 0, ())
        ops = [n_op, d_op, st_op, empty]
        launch = build_launch([(0, 0, ops), (0, 1, [d_op])])
        classification = [SimpleNamespace(pc=0xD8, is_deterministic=False),
                          SimpleNamespace(pc=0x10, is_deterministic=True)]
        new = split_launch(launch, classification, max_requests=4)
        got = new.warps[0].ops
        want = split_op(n_op, 4) + ops[1:]
        assert [op.pc for op in got] == [op.pc for op in want]
        for a, b in zip(got, want):
            assert (a.active_mask, a.addresses, a.values) == \
                (b.active_mask, b.addresses, b.values)
        assert [(op.pc, op.addresses) for op in new.warps[1].ops] == \
            [(0x10, d_op.addresses)]
        assert launch.warps[0].ops[0].addresses == n_op.addresses

class TestComparison:
    def test_split_reduces_requests_per_warp(self, bfs_run):
        outcome = compare_warp_splitting(bfs_run, TINY, max_requests=2)
        assert outcome["split"].n_requests_per_warp <= \
            outcome["baseline"].n_requests_per_warp
        assert outcome["split"].n_requests_per_warp <= 2.0 + 1e-9
