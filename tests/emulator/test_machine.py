"""Functional tests for the SIMT emulator."""

import numpy as np
import pytest

from repro.emulator.machine import EmulationError, Emulator
from repro.emulator.memory import MemoryImage
from repro.ptx.isa import DType
from repro.ptx.parser import parse_kernel


def run_kernel(ptx, grid, block, arrays=None, scalars=None,
               max_warp_insts=2_000_000):
    """Helper: allocate arrays, run, return (memory, trace)."""
    mem = MemoryImage()
    params = {}
    for name, data in (arrays or {}).items():
        if isinstance(data, int):
            params[name] = mem.alloc(name, data)
        else:
            params[name] = mem.alloc_array(name, data)
    params.update(scalars or {})
    emu = Emulator(mem, max_warp_insts=max_warp_insts)
    trace = emu.launch(parse_kernel(ptx), grid, block, params)
    return mem, trace


INCR = """
.entry incr ( .param .u64 data, .param .u32 n )
{
    mov.u32 %r1, %ctaid.x;
    mov.u32 %r2, %ntid.x;
    mov.u32 %r3, %tid.x;
    mad.lo.u32 %r4, %r1, %r2, %r3;
    ld.param.u32 %r5, [n];
    setp.ge.u32 %p1, %r4, %r5;
    @%p1 bra EXIT;
    ld.param.u64 %rd1, [data];
    cvt.u64.u32 %rd2, %r4;
    shl.b64 %rd3, %rd2, 2;
    add.u64 %rd4, %rd1, %rd3;
    ld.global.u32 %r6, [%rd4];
    add.u32 %r7, %r6, 1;
    st.global.u32 [%rd4], %r7;
EXIT:
    exit;
}
"""


class TestBasicExecution:
    def test_increment_all_elements(self):
        data = np.arange(100, dtype=np.uint32)
        mem, _ = run_kernel(INCR, 4, 32, {"data": data}, {"n": 100})
        assert np.array_equal(mem.read_array("data", np.uint32),
                              data + 1)

    def test_bounds_check_respected(self):
        data = np.zeros(100, dtype=np.uint32)
        # launch more threads than elements: tail must not be touched
        mem, _ = run_kernel(INCR, 8, 32, {"data": data}, {"n": 50})
        out = mem.read_array("data", np.uint32)
        assert out[:50].sum() == 50
        assert out[50:].sum() == 0

    def test_missing_param_raises(self):
        mem = MemoryImage()
        emu = Emulator(mem)
        with pytest.raises(EmulationError, match="missing params"):
            emu.launch(parse_kernel(INCR), 1, 32, {"n": 4})

    def test_instruction_budget(self):
        ptx = """
        .entry spin ( .param .u32 n )
        {
        LOOP:
            mov.u32 %r1, 0;
            bra LOOP;
            exit;
        }
        """
        # unterminated loop must hit the budget, not hang
        with pytest.raises(EmulationError, match="budget"):
            run_kernel(ptx + "", 1, 32, scalars={"n": 0},
                       max_warp_insts=1000)


class TestDivergence:
    IF_ELSE = """
    .entry sel ( .param .u64 outp )
    {
        mov.u32 %r1, %tid.x;
        and.b32 %r2, %r1, 1;
        setp.eq.u32 %p1, %r2, 0;
        @%p1 bra EVEN;
        mov.u32 %r3, 111;
        bra JOIN;
    EVEN:
        mov.u32 %r3, 222;
    JOIN:
        ld.param.u64 %rd1, [outp];
        cvt.u64.u32 %rd2, %r1;
        shl.b64 %rd3, %rd2, 2;
        add.u64 %rd4, %rd1, %rd3;
        st.global.u32 [%rd4], %r3;
        exit;
    }
    """

    def test_if_else_per_lane_values(self):
        mem, _ = run_kernel(self.IF_ELSE, 1, 32, {"outp": 128})
        out = mem.read_array("outp", np.uint32)
        assert np.array_equal(out[0::2], np.full(16, 222))
        assert np.array_equal(out[1::2], np.full(16, 111))

    VARIABLE_LOOP = """
    .entry vloop ( .param .u64 outp )
    {
        mov.u32 %r1, %tid.x;
        mov.u32 %r2, 0;
        mov.u32 %r3, 0;
    LOOP:
        setp.ge.u32 %p1, %r2, %r1;
        @%p1 bra DONE;
        add.u32 %r3, %r3, %r2;
        add.u32 %r2, %r2, 1;
        bra LOOP;
    DONE:
        ld.param.u64 %rd1, [outp];
        cvt.u64.u32 %rd2, %r1;
        shl.b64 %rd3, %rd2, 2;
        add.u64 %rd4, %rd1, %rd3;
        st.global.u32 [%rd4], %r3;
        exit;
    }
    """

    def test_per_thread_loop_trip_counts(self):
        # thread t computes sum(0..t-1); trip counts diverge inside a warp
        mem, _ = run_kernel(self.VARIABLE_LOOP, 1, 32, {"outp": 128})
        out = mem.read_array("outp", np.uint32)
        expected = np.array([t * (t - 1) // 2 for t in range(32)],
                            dtype=np.uint32)
        assert np.array_equal(out, expected)

    def test_predicated_exit(self):
        ptx = """
        .entry pexit ( .param .u64 outp )
        {
            mov.u32 %r1, %tid.x;
            setp.lt.u32 %p1, %r1, 8;
            @%p1 exit;
            ld.param.u64 %rd1, [outp];
            cvt.u64.u32 %rd2, %r1;
            shl.b64 %rd3, %rd2, 2;
            add.u64 %rd4, %rd1, %rd3;
            st.global.u32 [%rd4], 1;
            exit;
        }
        """
        mem, _ = run_kernel(ptx, 1, 32, {"outp": 128})
        out = mem.read_array("outp", np.uint32)
        assert out[:8].sum() == 0
        assert out[8:].sum() == 24


REDUCTION = """
.entry reduce ( .param .u64 inp, .param .u64 outp )
{
    .shared .f32 sd[64];
    mov.u32 %r1, %tid.x;
    ld.param.u64 %rd1, [inp];
    cvt.u64.u32 %rd2, %r1;
    shl.b64 %rd3, %rd2, 2;
    add.u64 %rd4, %rd1, %rd3;
    ld.global.f32 %f1, [%rd4];
    mov.u32 %r2, sd;
    shl.b32 %r3, %r1, 2;
    add.u32 %r4, %r2, %r3;
    st.shared.f32 [%r4], %f1;
    bar.sync 0;
    mov.u32 %r5, 32;
LOOP:
    setp.eq.u32 %p1, %r5, 0;
    @%p1 bra DONE;
    setp.ge.u32 %p2, %r1, %r5;
    @%p2 bra SKIP;
    add.u32 %r6, %r1, %r5;
    shl.b32 %r7, %r6, 2;
    add.u32 %r8, %r2, %r7;
    ld.shared.f32 %f2, [%r8];
    ld.shared.f32 %f3, [%r4];
    add.f32 %f4, %f2, %f3;
    st.shared.f32 [%r4], %f4;
SKIP:
    bar.sync 0;
    shr.u32 %r5, %r5, 1;
    bra LOOP;
DONE:
    setp.ne.u32 %p3, %r1, 0;
    @%p3 bra EXIT;
    ld.shared.f32 %f5, [%r2];
    ld.param.u64 %rd5, [outp];
    st.global.f32 [%rd5], %f5;
EXIT:
    exit;
}
"""


class TestBarriers:
    def test_cross_warp_shared_reduction(self):
        """Regression: the SIMT-stack ipdom bug made post-loop shared
        reads see stale partial sums."""
        data = np.arange(64, dtype=np.float32)
        mem, _ = run_kernel(REDUCTION, 1, 64,
                            {"inp": data, "outp": 4})
        assert mem.read_array("outp", np.float32)[0] == data.sum()

    def test_barrier_deadlock_would_raise(self):
        # a barrier in a kernel where one warp exits first is still
        # released because only live warps count
        ptx = """
        .entry halfbar ( .param .u64 outp )
        {
            mov.u32 %r1, %tid.x;
            setp.ge.u32 %p1, %r1, 32;
            @%p1 exit;
            bar.sync 0;
            ld.param.u64 %rd1, [outp];
            st.global.u32 [%rd1], 1;
            exit;
        }
        """
        mem, _ = run_kernel(ptx, 1, 64, {"outp": 4})
        assert mem.read_array("outp", np.uint32)[0] == 1


class TestAtomics:
    ATOM = """
    .entry count ( .param .u64 counter )
    {
        ld.param.u64 %rd1, [counter];
        atom.add.global.u32 %r1, [%rd1], 1;
        exit;
    }
    """

    def test_atomic_add_counts_all_threads(self):
        mem, _ = run_kernel(self.ATOM, 4, 64, {"counter": 4})
        assert mem.read_array("counter", np.uint32)[0] == 256

    def test_atomic_min_signed(self):
        ptx = """
        .entry amin ( .param .u64 slot )
        {
            mov.u32 %r1, %tid.x;
            ld.param.u64 %rd1, [slot];
            atom.min.global.s32 %r2, [%rd1], %r1;
            exit;
        }
        """
        mem = MemoryImage()
        base = mem.alloc("slot", 4)
        mem.store(base, DType.S32, 999)
        emu = Emulator(mem)
        emu.launch(parse_kernel(ptx), 1, 32, {"slot": base})
        assert mem.load(base, DType.S32) == 0

    def test_atomic_returns_old_value(self):
        ptx = """
        .entry aold ( .param .u64 slot, .param .u64 outp )
        {
            mov.u32 %r1, %tid.x;
            setp.ne.u32 %p1, %r1, 0;
            @%p1 exit;
            ld.param.u64 %rd1, [slot];
            atom.add.global.u32 %r2, [%rd1], 5;
            ld.param.u64 %rd2, [outp];
            st.global.u32 [%rd2], %r2;
            exit;
        }
        """
        mem = MemoryImage()
        slot = mem.alloc("slot", 4)
        outp = mem.alloc("outp", 4)
        mem.store(slot, DType.U32, 37)
        Emulator(mem).launch(parse_kernel(ptx), 1, 32,
                             {"slot": slot, "outp": outp})
        assert mem.load(outp, DType.U32) == 37
        assert mem.load(slot, DType.U32) == 42


class TestNumerics:
    def test_signed_arithmetic(self):
        ptx = """
        .entry sgn ( .param .u64 outp )
        {
            mov.u32 %r1, 3;
            sub.s32 %r2, %r1, 10;          // -7
            abs.s32 %r3, %r2;              // 7
            neg.s32 %r4, %r3;              // -7
            shr.s32 %r5, %r4, 1;           // arithmetic shift: -4
            div.s32 %r6, %r4, 2;           // trunc toward zero: -3
            ld.param.u64 %rd1, [outp];
            st.global.s32 [%rd1], %r2;
            st.global.s32 [%rd1+4], %r3;
            st.global.s32 [%rd1+8], %r5;
            st.global.s32 [%rd1+12], %r6;
            exit;
        }
        """
        mem, _ = run_kernel(ptx, 1, 1, {"outp": 16})
        out = mem.read_array("outp", np.int32)
        assert list(out) == [-7, 7, -4, -3]

    def test_mul_wide_and_hi(self):
        ptx = """
        .entry wide ( .param .u64 outp )
        {
            mov.u32 %r1, 0x10000;
            mul.wide.u32 %rd1, %r1, %r1;   // 2^32
            mul.hi.u32 %r2, %r1, %r1;      // 1
            ld.param.u64 %rd2, [outp];
            st.global.u64 [%rd2], %rd1;
            st.global.u32 [%rd2+8], %r2;
            exit;
        }
        """
        mem, _ = run_kernel(ptx, 1, 1, {"outp": 16})
        assert mem.load(mem.base_of("outp"), DType.U64) == 1 << 32
        assert mem.load(mem.base_of("outp") + 8, DType.U32) == 1

    def test_transcendentals(self):
        ptx = """
        .entry trans ( .param .u64 outp )
        {
            mov.f32 %f1, 4.0;
            sqrt.f32 %f2, %f1;
            rcp.f32 %f3, %f1;
            ex2.f32 %f4, %f1;
            lg2.f32 %f5, %f1;
            sin.f32 %f6, 0.0;
            cos.f32 %f7, 0.0;
            ld.param.u64 %rd1, [outp];
            st.global.f32 [%rd1], %f2;
            st.global.f32 [%rd1+4], %f3;
            st.global.f32 [%rd1+8], %f4;
            st.global.f32 [%rd1+12], %f5;
            st.global.f32 [%rd1+16], %f6;
            st.global.f32 [%rd1+20], %f7;
            exit;
        }
        """
        mem, _ = run_kernel(ptx, 1, 1, {"outp": 24})
        out = mem.read_array("outp", np.float32)
        assert list(out) == [2.0, 0.25, 16.0, 2.0, 0.0, 1.0]

    def test_unsigned_wraparound(self):
        ptx = """
        .entry wrap ( .param .u64 outp )
        {
            mov.u32 %r1, 0xFFFFFFFF;
            add.u32 %r2, %r1, 2;
            ld.param.u64 %rd1, [outp];
            st.global.u32 [%rd1], %r2;
            exit;
        }
        """
        mem, _ = run_kernel(ptx, 1, 1, {"outp": 4})
        assert mem.read_array("outp", np.uint32)[0] == 1


class TestTraceRecording:
    def test_trace_counts(self):
        data = np.zeros(64, dtype=np.uint32)
        _, trace = run_kernel(INCR, 2, 32, {"data": data}, {"n": 64})
        assert trace.total_warp_instructions() > 0
        assert trace.global_load_warp_count() == 2  # one per warp
        assert len(trace.warps) == 2

    def test_memory_op_addresses(self):
        data = np.zeros(32, dtype=np.uint32)
        _, trace = run_kernel(INCR, 1, 32, {"data": data}, {"n": 32})
        ops = [op for w in trace.warps for op in w.ops
               if op.addresses is not None and op.inst.is_load]
        assert len(ops) == 1
        addrs = [a for _l, a in ops[0].addresses]
        assert addrs == sorted(addrs)
        assert addrs[1] - addrs[0] == 4
