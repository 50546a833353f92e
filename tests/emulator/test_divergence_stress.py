"""SIMT divergence stress tests.

Each kernel is verified against a straightforward *per-thread* Python
execution of the same control flow — any reconvergence-stack bug
(wrong ipdom, lost lanes, premature merges) shows up as a lane-level
mismatch.
"""

import numpy as np

from repro.emulator import Emulator, MemoryImage
from repro.emulator.machine import ENGINES
from repro.ptx import parse_kernel


def run(ptx, n_threads=32, extra_params=None):
    """Run the kernel on every engine; they must agree lane for lane."""
    outs = {}
    for engine in ENGINES:
        mem = MemoryImage()
        out = mem.alloc("out", n_threads * 4)
        params = {"out": out}
        params.update(extra_params or {})
        emu = Emulator(mem, engine=engine)
        emu.launch(parse_kernel(ptx), 1, n_threads, params)
        outs[engine] = mem.read_array("out", np.uint32, n_threads)
    first = outs[ENGINES[0]]
    for engine, out in outs.items():
        assert (out == first).all(), engine
    return first


class TestNestedDivergence:
    PTX = """
    .entry nested ( .param .u64 out )
    {
        mov.u32 %r1, %tid.x;
        mov.u32 %r2, 0;
        and.b32 %r3, %r1, 1;
        setp.eq.u32 %p1, %r3, 0;
        @%p1 bra OUTER_ELSE;
        // odd lanes
        and.b32 %r4, %r1, 2;
        setp.eq.u32 %p2, %r4, 0;
        @%p2 bra INNER_ELSE;
        add.u32 %r2, %r2, 100;       // odd, bit1 set
        bra INNER_JOIN;
    INNER_ELSE:
        add.u32 %r2, %r2, 200;       // odd, bit1 clear
    INNER_JOIN:
        add.u32 %r2, %r2, 1;         // all odd lanes
        bra OUTER_JOIN;
    OUTER_ELSE:
        add.u32 %r2, %r2, 1000;      // even lanes
    OUTER_JOIN:
        add.u32 %r2, %r2, 7;         // everyone
        ld.param.u64 %rd1, [out];
        cvt.u64.u32 %rd2, %r1;
        shl.b64 %rd3, %rd2, 2;
        add.u64 %rd4, %rd1, %rd3;
        st.global.u32 [%rd4], %r2;
        exit;
    }
    """

    def test_matches_per_thread_reference(self):
        out = run(self.PTX)
        for t in range(32):
            value = 0
            if t & 1:
                value += 100 if t & 2 else 200
                value += 1
            else:
                value += 1000
            value += 7
            assert out[t] == value, "lane %d" % t


class TestLoopWithBreak:
    PTX = """
    .entry lbreak ( .param .u64 out )
    {
        mov.u32 %r1, %tid.x;
        mov.u32 %r2, 0;              // acc
        mov.u32 %r3, 0;              // i
    LOOP:
        setp.ge.u32 %p1, %r3, 10;
        @%p1 bra DONE;
        add.u32 %r2, %r2, %r3;
        // break when acc exceeds tid
        setp.gt.u32 %p2, %r2, %r1;
        @%p2 bra DONE;
        add.u32 %r3, %r3, 1;
        bra LOOP;
    DONE:
        ld.param.u64 %rd1, [out];
        cvt.u64.u32 %rd2, %r1;
        shl.b64 %rd3, %rd2, 2;
        add.u64 %rd4, %rd1, %rd3;
        st.global.u32 [%rd4], %r2;
        exit;
    }
    """

    def test_matches_per_thread_reference(self):
        out = run(self.PTX)
        for t in range(32):
            acc, i = 0, 0
            while i < 10:
                acc += i
                if acc > t:
                    break
                i += 1
            assert out[t] == acc, "lane %d" % t


class TestNestedLoops:
    PTX = """
    .entry nloops ( .param .u64 out )
    {
        mov.u32 %r1, %tid.x;
        and.b32 %r2, %r1, 3;         // outer trip count = tid % 4
        mov.u32 %r3, 0;              // acc
        mov.u32 %r4, 0;              // i
    OUTER:
        setp.ge.u32 %p1, %r4, %r2;
        @%p1 bra DONE;
        mov.u32 %r5, 0;              // j
    INNER:
        setp.ge.u32 %p2, %r5, %r4;
        @%p2 bra INNER_DONE;
        add.u32 %r3, %r3, 1;
        add.u32 %r5, %r5, 1;
        bra INNER;
    INNER_DONE:
        add.u32 %r3, %r3, 10;
        add.u32 %r4, %r4, 1;
        bra OUTER;
    DONE:
        ld.param.u64 %rd1, [out];
        cvt.u64.u32 %rd2, %r1;
        shl.b64 %rd3, %rd2, 2;
        add.u64 %rd4, %rd1, %rd3;
        st.global.u32 [%rd4], %r3;
        exit;
    }
    """

    def test_matches_per_thread_reference(self):
        out = run(self.PTX)
        for t in range(32):
            acc = 0
            for i in range(t & 3):
                for _j in range(i):
                    acc += 1
                acc += 10
            assert out[t] == acc, "lane %d" % t


class TestDivergentSwitchChain:
    PTX = """
    .entry chain ( .param .u64 out )
    {
        mov.u32 %r1, %tid.x;
        and.b32 %r2, %r1, 3;
        mov.u32 %r3, 0;
        setp.eq.u32 %p1, %r2, 0;
        @%p1 bra CASE0;
        setp.eq.u32 %p2, %r2, 1;
        @%p2 bra CASE1;
        setp.eq.u32 %p3, %r2, 2;
        @%p3 bra CASE2;
        mov.u32 %r3, 33;
        bra JOIN;
    CASE0:
        mov.u32 %r3, 10;
        bra JOIN;
    CASE1:
        mov.u32 %r3, 21;
        bra JOIN;
    CASE2:
        mov.u32 %r3, 32;
    JOIN:
        add.u32 %r3, %r3, %r2;
        ld.param.u64 %rd1, [out];
        cvt.u64.u32 %rd2, %r1;
        shl.b64 %rd3, %rd2, 2;
        add.u64 %rd4, %rd1, %rd3;
        st.global.u32 [%rd4], %r3;
        exit;
    }
    """

    def test_matches_per_thread_reference(self):
        out = run(self.PTX)
        table = {0: 10, 1: 21, 2: 32, 3: 33}
        for t in range(32):
            case = t & 3
            assert out[t] == table[case] + case, "lane %d" % t


class TestAllLanesExitEarly:
    PTX = """
    .entry early ( .param .u64 out )
    {
        mov.u32 %r1, %tid.x;
        ld.param.u64 %rd1, [out];
        cvt.u64.u32 %rd2, %r1;
        shl.b64 %rd3, %rd2, 2;
        add.u64 %rd4, %rd1, %rd3;
        st.global.u32 [%rd4], 5;
        setp.lt.u32 %p1, %r1, 32;
        @%p1 exit;
        st.global.u32 [%rd4], 9;   // unreachable for a 32-thread block
        exit;
    }
    """

    def test_unreachable_tail_never_runs(self):
        out = run(self.PTX)
        assert (out == 5).all()
