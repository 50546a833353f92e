"""Columnar (schema-v3) trace storage: round-trip and streaming tests.

Appending ops, sealing, and reading them back through the read-only
``ops`` view is the identity on every field the schema carries
(instruction identity, active mask, per-lane addresses, stored values —
byte-exact, including negative signed values, float bit patterns, and
``.v2``/``.v4`` vector stores).  A sealed launch owns the columns and
each warp's columns are its rows of them, and the launch's coalesced
table picked by a kind-column row mask must agree with the record view.
"""

import math
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.emulator import MemoryImage, Emulator
from repro.emulator.columnar import (
    COLUMNS,
    KIND_NONE,
    SPACE_CODES,
    ColumnarLaunchTrace,
    decode_value,
    encode_value,
    take_ragged,
)
from repro.emulator.grid import LaunchConfig, as_dim3
from repro.emulator.serialize import load_run, save_run
from repro.emulator.trace import ApplicationTrace, TraceOp
from repro.ptx.builder import KernelBuilder
from repro.ptx.isa import Space
from repro.sim.coalescer import coalesce_addresses, coalesced

from tests.traces import build_launch


def _test_kernel():
    """A kernel touching every op category the columns distinguish:
    ALU ops, global/shared loads and stores (u32/s32/f32), an atomic,
    and a barrier."""
    b = KernelBuilder("colk")
    out = b.param("out", "u64")
    b.shared(64 * 4)
    tid = b.emit("mov.u32", b.reg("r"), b.sreg("%tid.x"))
    base = b.emit("ld.param.u64", b.reg("rd"), b.mem(out))
    tid64 = b.emit("cvt.u64.u32", b.reg("rd"), tid)
    off = b.emit("shl.b64", b.reg("rd"), tid64, b.imm(2))
    addr = b.emit("add.u64", b.reg("rd"), base, off)
    v = b.emit("ld.global.u32", b.reg("r"), b.mem(addr))
    f = b.emit("cvt.rn.f32.u32", b.reg("f"), v)
    b.emit("st.shared.f32", b.mem(off), f)
    b.emit("bar.sync", b.imm(0))
    s = b.emit("ld.shared.f32", b.reg("f"), b.mem(off))
    si = b.emit("cvt.rzi.s32.f32", b.reg("r"), s)
    neg = b.emit("sub.s32", b.reg("r"), si, b.imm(7))
    b.emit("st.global.s32", b.mem(addr), neg)
    b.emit("atom.add.global.u32", b.reg("r"), b.mem(addr), tid)
    b.emit("exit")
    return b.build()


def _emulated_launch(nthreads=64, engine=None):
    kernel = _test_kernel()
    mem = MemoryImage()
    base = mem.alloc("out", nthreads * 4)
    emu = Emulator(mem, engine=engine)
    return emu.launch(kernel, (2, 1, 1), (nthreads, 1, 1), {"out": base})


def _assert_ops_equal(a, b):
    assert len(a) == len(b)
    for op_a, op_b in zip(a, b):
        assert op_a.inst is op_b.inst or op_a.inst.pc == op_b.inst.pc
        assert op_a.active_mask == op_b.active_mask
        assert op_a.addresses == op_b.addresses
        if op_a.values is None or op_b.values is None:
            assert op_a.values == op_b.values
        else:
            assert len(op_a.values) == len(op_b.values)
            for va, vb in zip(op_a.values, op_b.values):
                if isinstance(va, float) and math.isnan(va):
                    assert math.isnan(vb)
                else:
                    assert va == vb and type(va) is type(vb)


def _assert_launches_equal(a, b):
    assert a.kernel_name == b.kernel_name
    assert a.shared_size == b.shared_size
    assert len(a.warps) == len(b.warps)
    for wa, wb in zip(a.warps, b.warps):
        assert (wa.cta_id, wa.warp_id) == (wb.cta_id, wb.warp_id)
        _assert_ops_equal(list(wa.ops), list(wb.ops))


def _assert_warps_are_launch_rows(launch):
    """Each warp's columns are the launch columns cut at its offsets,
    with per-warp ``astart``/``vstart``."""
    rows = launch.op_start.tolist()
    assert rows[0] == 0 and rows[-1] == len(launch.pc)
    for i, warp in enumerate(launch.warps):
        lo, hi = rows[i], rows[i + 1]
        assert warp.base == lo
        a0, a1 = int(launch.astart[lo]), int(launch.astart[hi])
        v0, v1 = int(launch.vstart[lo]), int(launch.vstart[hi])
        for name, _dt in COLUMNS:
            lo_, hi_ = {"lanes": (a0, a1), "addrs": (a0, a1),
                        "vals": (v0, v1)}.get(name, (lo, hi))
            np.testing.assert_array_equal(getattr(warp, name),
                                          getattr(launch, name)[lo_:hi_])
        np.testing.assert_array_equal(
            warp.astart, launch.astart[lo:hi + 1] - a0)
        np.testing.assert_array_equal(
            warp.vstart, launch.vstart[lo:hi + 1] - v0)


def _rebuilt(launch):
    """``launch`` re-appended op by op from its record view."""
    return build_launch([(w.cta_id, w.warp_id, w.ops) for w in launch.warps],
                        config=launch.config,
                        kernel_name=launch.kernel_name,
                        shared_size=launch.shared_size,
                        instructions=launch.instructions)


class TestRoundTrip:
    def test_emulated_launch_round_trips(self, tmp_path):
        col = _emulated_launch()
        back = _rebuilt(col)
        _assert_launches_equal(col, back)
        # the columns themselves agree, not just the record views
        for name, _dt in COLUMNS:
            np.testing.assert_array_equal(getattr(col, name),
                                          getattr(back, name))
        app = ApplicationTrace("colk")
        app.add(col)
        save_run(SimpleNamespace(module=[_test_kernel()], trace=app),
                 tmp_path / "colk.trace")
        loaded = load_run(tmp_path / "colk.trace").trace.launches[0]
        _assert_launches_equal(col, loaded)
        for launch in (col, back, loaded):
            _assert_warps_are_launch_rows(launch)

    def test_aggregates_match_record_trace(self):
        col = _emulated_launch()
        ops = [op for w in col.warps for op in w.ops]
        assert col.total_warp_instructions() == len(ops)
        assert (col.total_thread_instructions()
                == sum(op.active_count for op in ops))
        assert (col.global_load_warp_count()
                == sum(op.inst.is_global_load for op in ops))
        assert (col.shared_load_warp_count()
                == sum(op.inst.is_shared_load for op in ops))
        by_pc = {}
        for op in ops:
            if op.inst.is_global_load:
                by_pc[op.pc] = by_pc.get(op.pc, 0) + 1
        assert col.dynamic_counts_by_pc() == by_pc

    def test_seal_moves_every_warp_into_the_launch(self):
        """Sealing copies each warp's staging lists into the launch
        columns and keeps none of them."""
        col = _emulated_launch()
        assert all(not w._b_pc for w in col.warps)
        assert len(col.pc) == sum(len(w) for w in col.warps) > 0
        _assert_warps_are_launch_rows(col)


# hypothesis-driven append -> seal -> ops property round-trip: random
# masks, ragged lane/address sets, and stored values across dtypes.

_signed_vals = st.integers(min_value=-2**31, max_value=2**31 - 1)
_float_vals = st.one_of(
    st.floats(width=32, allow_nan=False),
    st.sampled_from([0.0, -0.0, float("inf"), float("-inf")]))


@st.composite
def _random_ops(draw, insts):
    """A legal random op stream over the test kernel's instructions."""
    ops = []
    for _ in range(draw(st.integers(min_value=0, max_value=40))):
        inst = draw(st.sampled_from(insts))
        mask = draw(st.integers(min_value=0, max_value=2**32 - 1))
        if not inst.is_memory:
            ops.append(TraceOp(inst, mask))
            continue
        lanes = sorted(draw(st.sets(
            st.integers(min_value=0, max_value=31), max_size=8)))
        addresses = tuple(
            (lane, draw(st.integers(min_value=0, max_value=2**48)) * 4)
            for lane in lanes)
        values = None
        if inst.is_store:
            gen = (_float_vals if inst.dtype.is_float else _signed_vals)
            values = tuple(draw(gen) for _ in addresses)
            if inst.dtype.is_float:
                values = tuple(
                    struct.unpack("<f", struct.pack("<f", v))[0]
                    for v in values)
        ops.append(TraceOp(inst, mask, addresses, values))
    return ops


class TestPropertyRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_append_seal_ops_is_identity(self, data):
        insts = _test_kernel().instructions
        warps = [(0, warp_id, data.draw(_random_ops(insts)))
                 for warp_id in range(data.draw(st.integers(1, 3)))]
        col = build_launch(warps, kernel_name="colk", shared_size=128,
                           instructions=insts)
        for (_cta, _warp, ops), warp in zip(warps, col.warps):
            _assert_ops_equal(ops, list(warp.ops))


class TestMemoryTable:
    """The launch's L1-path ops (global, local and tex), picked from its
    coalesced table by a row mask over its ``kind`` column, coalesce
    like the record view's ops one at a time; no other op is in it."""

    def test_matches_record_iterator(self):
        col = _emulated_launch()
        kind = col.kind
        (table,) = coalesced([col])
        on_l1 = (Space.GLOBAL, Space.LOCAL, Space.TEX)
        for space, loads_only in ((None, False), (Space.GLOBAL, False),
                                  (Space.GLOBAL, True),
                                  (Space.SHARED, False)):
            keep = kind != KIND_NONE
            if loads_only:
                keep &= (kind & 3) == 0
            if space is not None:
                keep &= (kind >> 2) == SPACE_CODES[space.value]
            recorded = [(w_idx, op)
                        for w_idx, w in enumerate(col.warps)
                        for op in w.ops
                        if op.addresses is not None
                        and (not loads_only or op.inst.is_load)
                        and (space is None or op.inst.space is space)]
            assert recorded
            expected = [(w_idx, op) for w_idx, op in recorded
                        if op.inst.space in on_l1]
            assert expected or space is Space.SHARED
            ops = table.where(keep)
            assert len(ops.rows) == len(expected)
            for i, (w_idx, op) in enumerate(expected):
                row = int(ops.rows[i])
                warp = col.warps[w_idx]
                assert warp.base <= row < warp.base + len(warp.pc)
                assert int(col.pc[row]) == op.pc
                assert int(ops.lanes[i]) == len(op.addresses)
                want = [block // 128 for block in coalesce_addresses(
                    op.addresses, 128, op.inst.access_bytes)]
                assert ops.pair_lines[ops.pair_ops == i].tolist() == want

    def test_empty_launch_coalesces_to_nothing(self):
        config = LaunchConfig(grid=as_dim3((1, 1, 1)),
                              block=as_dim3((32, 1, 1)))
        col = ColumnarLaunchTrace("empty", config, []).seal()
        assert len(col.pc) == 0 and col.op_start.tolist() == [0]
        (ops,) = coalesced([col])
        assert len(ops.rows) == len(ops.pair_ops) == 0


class TestValueCodec:
    @pytest.mark.parametrize("value,is_float", [
        (0, False), (1, False), (-1, False), (2**63 - 1, False),
        (-2**63, False), (2**64 - 1, False),
        (0.0, True), (-0.0, True), (1.5, True), (float("inf"), True),
        (float("-inf"), True), (3.14159e300, True),
    ])
    def test_encode_is_invertible(self, value, is_float):
        class _D:
            def __init__(self, f, s):
                self.is_float, self.is_signed = f, s
        bits = encode_value(value, is_float)
        assert 0 <= bits < 2**64
        if is_float:
            got = decode_value(bits, _D(True, False))
            assert got == value and math.copysign(1, got) == \
                math.copysign(1, value)
        else:
            signed = value < 0
            got = decode_value(bits, _D(False, signed))
            assert got == value

    def test_nan_payload_survives(self):
        class _D:
            is_float, is_signed = True, False
        bits = encode_value(float("nan"), True)
        assert math.isnan(decode_value(bits, _D()))


def test_take_ragged_gathers_row_slices():
    flat = np.arange(20, dtype=np.int64)
    starts = np.array([0, 10, 4])
    counts = np.array([3, 0, 5])
    np.testing.assert_array_equal(
        take_ragged(flat, starts, counts),
        np.array([0, 1, 2, 4, 5, 6, 7, 8]))
    assert len(take_ragged(flat, starts[:0], counts[:0])) == 0


def test_kind_none_sentinel():
    assert KIND_NONE == 0xFF
