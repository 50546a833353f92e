"""Unit and property tests for the memory coalescer."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.emulator.columnar import rewrite_global_loads
from repro.emulator.trace import ApplicationTrace, TraceOp
from repro.optim.warp_split import split_op
from repro.profiling.irregularity import measure_irregularity
from repro.profiling.trace_profile import profile_trace
from repro.ptx.isa import PC_STRIDE, DType, Instruction, MemRef, Reg, Space
from repro.sim import GPU, TINY
from repro.sim import coalescer
from repro.sim.coalescer import (
    MemoryPlan, coalesce_addresses, coalesced, coalescing_degree)

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
        (got,) = coalesced([launch], line_size)
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


# -- the one pass over launches --------------------------------------------

def _mem_inst(index, opcode, space, vector=1):
    regs = tuple(Reg("%%r%d" % i) for i in range(vector))
    addr = (MemRef(Reg("%rd1")),)
    inst = Instruction(
        opcode=opcode, dtype=DType.U32, space=space, vector=vector,
        atom_op="add" if opcode == "atom" else None,
        dests=regs if opcode in ("ld", "atom") else (),
        srcs=addr + (regs if opcode != "ld" else ()))
    inst.pc = index * PC_STRIDE
    return inst


#: pc index -> instruction: global loads one, two and four words wide
#: (the wider ones cross lines), a global store and atomic, local and
#: tex loads (all on the L1 path), and a shared load (not on it).
_INSTS = [_mem_inst(i, *spec) for i, spec in enumerate([
    ("ld", Space.GLOBAL), ("ld", Space.GLOBAL, 2), ("ld", Space.GLOBAL, 4),
    ("st", Space.GLOBAL), ("atom", Space.GLOBAL), ("ld", Space.LOCAL),
    ("ld", Space.TEX), ("ld", Space.SHARED)])]
_L1_SPACES = (Space.GLOBAL, Space.LOCAL, Space.TEX)

#: one warp op: a pc index and its lanes' byte addresses (an empty list
#: is an op whose lanes were all predicated off).
_op = st.tuples(st.integers(0, len(_INSTS) - 1),
                st.lists(st.integers(0, 1 << 10), max_size=5))
_launch = st.lists(st.tuples(st.integers(0, 3), st.lists(_op, max_size=6)),
                   min_size=1, max_size=4)


def _build(warps, keep=None):
    """A launch of ``warps`` (``[(cta, [(pc index, addrs)])]``), with
    only the ops whose pc index is in ``keep`` when given."""
    built = []
    for warp_id, (cta, ops) in enumerate(warps):
        trace_ops = []
        for index, addrs in ops:
            if keep is not None and index not in keep:
                continue
            inst = _INSTS[index]
            values = (0,) * len(addrs) if inst.is_store else None
            trace_ops.append(TraceOp(inst, (1 << len(addrs)) - 1,
                                     tuple(enumerate(addrs)), values))
        built.append((cta, warp_id, trace_ops))
    return build_launch(built, instructions=_INSTS)


def _reference(launch, line_size):
    """Per L1-path op of the record view, one op at a time: its row,
    lane accesses, and the lines :func:`coalesce_addresses` gives."""
    want = []
    for warp in launch.warps:
        for i, op in enumerate(warp.ops):
            if op.addresses is None or op.inst.space not in _L1_SPACES:
                continue
            want.append((warp.base + i, len(op.addresses), [
                block // line_size for block in coalesce_addresses(
                    op.addresses, line_size, op.inst.access_bytes)]))
    return want


def _per_op(ops):
    """The same per-op view of a :class:`CoalescedOps`."""
    got = []
    for i, (row, lanes, lines) in enumerate(zip(
            ops.rows.tolist(), ops.lanes.tolist(), ops.lines.tolist())):
        pairs = ops.pair_lines[ops.pair_ops == i].tolist()
        assert lines == len(pairs)
        got.append((row, lanes, pairs))
    assert np.all(np.diff(ops.pair_ops) >= 0)
    return got


def _fields(ops):
    return [field.tolist() for field in ops]


class TestOnePassOverLaunches:
    @given(st.lists(_launch, min_size=1, max_size=3),
           st.sampled_from((8, 32, 128)))
    @settings(max_examples=60, deadline=None)
    def test_batch_equals_each_launch_alone(self, launches, line_size):
        batch = [_build(warps) for warps in launches]
        alone = [_build(warps) for warps in launches]
        together = coalesced(batch, line_size)
        # held by the launches, not coalesced again
        assert all(a is b for a, b in zip(coalesced(batch, line_size),
                                          together))
        for launch, ops in zip(alone, together):
            (own,) = coalesced([launch], line_size)
            assert _fields(ops) == _fields(own)
            assert _per_op(ops) == _reference(launch, line_size)

    def test_batch_is_one_pass(self, monkeypatch):
        calls = []
        coalesce = coalescer._coalesce

        def counting(launches, line_size):
            calls.append(len(launches))
            return coalesce(launches, line_size)

        monkeypatch.setattr(coalescer, "_coalesce", counting)
        first = _build([(0, [(0, [0, 4])])])
        coalesced([first])
        rest = [_build([(1, [(2, [120])])]), _build([(2, [(3, [8])])])]
        coalesced([first] + rest)
        coalesced(rest)
        assert calls == [1, 2]

    def test_corners_against_the_per_op_rule(self):
        """A .v2 and a .v4 access across a line, an all-off load, a
        store, an atomic, local and tex loads, and a shared load that
        the table leaves out."""
        launch = _build([(0, [(1, [124]), (2, [120, 0]), (0, []),
                              (3, [0, 200]), (4, [4, 4]), (5, [64]),
                              (6, [300]), (7, [0])])])
        (ops,) = coalesced([launch])
        assert _per_op(ops) == [
            (0, 1, [0, 1]), (1, 2, [0, 1]), (2, 0, []), (3, 2, [0, 1]),
            (4, 2, [0]), (5, 1, [0]), (6, 1, [2])]
        assert _per_op(ops) == _reference(launch, 128)

    @given(_launch, st.sets(st.integers(0, len(_INSTS) - 1)),
           st.sampled_from((8, 32, 128)))
    @settings(max_examples=60, deadline=None)
    def test_where_equals_coalescing_the_subset(self, warps, keep,
                                                line_size):
        launch, subset = _build(warps), _build(warps, keep)
        pcs = [index * PC_STRIDE for index in keep]
        (ops,) = coalesced([launch], line_size)
        got = ops.where(np.isin(launch.pc, pcs))
        (want,) = coalesced([subset], line_size)
        assert (launch.pc[got.rows].tolist()
                == subset.pc[want.rows].tolist())
        assert _fields(got)[1:] == _fields(want)[1:]

    def test_warp_split_rewrite_gets_a_fresh_table(self):
        launch = _build([(0, [(0, [0, 128, 256, 384]), (3, [0])])])
        (ops,) = coalesced([launch])
        split = rewrite_global_loads(launch, {0},
                                     lambda op: split_op(op, 2))
        assert split.coalesced_ops == {}
        (fresh,) = coalesced([split])
        assert fresh is not ops
        assert _per_op(fresh) == _reference(split, 128)
        assert _fields(fresh) != _fields(ops)
        assert launch.coalesced_ops == {128: ops}

    def test_plan_and_profile_line_sizes_keep_two_tables(self):
        launch = _build([(0, [(0, [0, 32, 64, 96]), (2, [120])])])
        assert TINY.l1_line_size == 128
        MemoryPlan(launch, TINY)
        app = ApplicationTrace("t")
        app.add(launch)
        profile = profile_trace(app, {}, line_bytes=32)
        assert profile.locality.num_blocks == 5
        wide, narrow = launch.coalesced_ops[128], launch.coalesced_ops[32]
        assert set(launch.coalesced_ops) == {128, 32}
        for a in wide:
            for b in narrow:
                assert not np.shares_memory(a, b)
        assert _per_op(wide) == _reference(launch, 128)
        assert _per_op(narrow) == _reference(launch, 32)
        assert _per_op(wide) == [(0, 4, [0]), (1, 1, [0, 1])]
