"""Tests for the perfect-coalescing what-if study."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.emulator.trace import TraceOp
from repro.optim.coalesce_oracle import (
    coalesce_op,
    coalesced_launch,
    compare_perfect_coalescing,
)
from repro.ptx.isa import DType, Instruction, MemRef, Reg, Space
from repro.sim.coalescer import coalescing_degree
from repro.sim.config import TINY

from tests.traces import build_launch


def load_op(addrs, pc=0xD8):
    inst = Instruction(opcode="ld", dtype=DType.U32, space=Space.GLOBAL,
                       dests=(Reg("%r1"),), srcs=(MemRef(Reg("%rd1")),))
    inst.pc = pc
    mask = 0
    for lane, _a in addrs:
        mask |= 1 << lane
    return TraceOp(inst, mask, tuple(addrs))


class TestCoalesceOp:
    def test_scattered_access_becomes_minimal(self):
        op = load_op([(lane, lane * 4096) for lane in range(32)])
        new = coalesce_op(op)
        n_requests, lanes = coalescing_degree(new.addresses)
        assert lanes == 32
        assert n_requests == 1

    def test_lane_set_preserved(self):
        op = load_op([(lane, lane * 512) for lane in range(7)])
        new = coalesce_op(op)
        assert [lane for lane, _a in new.addresses] == \
            [lane for lane, _a in op.addresses]
        assert new.active_mask == op.active_mask

    def test_blocks_drawn_from_original_footprint(self):
        op = load_op([(lane, lane * 4096) for lane in range(32)])
        new = coalesce_op(op)
        original_blocks = {a // 128 for _l, a in op.addresses}
        new_blocks = {a // 128 for _l, a in new.addresses}
        assert new_blocks <= original_blocks

    @given(st.lists(st.integers(0, 1 << 20), min_size=1, max_size=32))
    @settings(max_examples=40, deadline=None)
    def test_minimality_property(self, raw):
        op = load_op([(lane, addr) for lane, addr in enumerate(raw)])
        new = coalesce_op(op)
        n_requests, lanes = coalescing_degree(new.addresses)
        minimal = max(1, -(-lanes // 32))
        assert n_requests == minimal


class TestCoalescedLaunchColumns:
    def test_only_n_rows_rewritten(self):
        n_op = load_op([(lane, lane * 4096) for lane in range(8)])
        d_op = load_op([(lane, lane * 4096) for lane in range(8)], pc=0x10)
        launch = build_launch([(0, 0, [n_op, d_op, n_op])])
        classification = [SimpleNamespace(pc=0xD8, is_deterministic=False)]
        new = coalesced_launch(launch, classification)
        got = new.warps[0].ops
        packed = coalesce_op(n_op)
        assert [op.addresses for op in got] == \
            [packed.addresses, d_op.addresses, packed.addresses]
        assert [op.active_mask for op in got] == [n_op.active_mask] * 3


class TestComparison:
    def test_oracle_improves_bfs(self, bfs_run):
        out = compare_perfect_coalescing(bfs_run, TINY)
        base, oracle = out["baseline"], out["coalesced"]
        assert oracle.n_requests_per_warp == pytest.approx(1.0, abs=0.1)
        assert oracle.mean_n_turnaround < base.mean_n_turnaround
        assert oracle.cycles < base.cycles
        assert oracle.reservation_fail_fraction < \
            base.reservation_fail_fraction

    def test_deterministic_apps_untouched(self, twomm_run):
        launch = twomm_run.trace.launches[0]
        classification = twomm_run.classifications[launch.kernel_name]
        new = coalesced_launch(launch, classification)
        for old_w, new_w in zip(launch.warps, new.warps):
            assert [op.addresses for op in old_w.ops] == \
                [op.addresses for op in new_w.ops]
