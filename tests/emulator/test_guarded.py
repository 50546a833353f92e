"""Tests for guarded execution: memory faults, watchdog, barrier deadlock."""

import pytest

from repro.emulator import (
    BarrierDeadlockError,
    EmulationError,
    Emulator,
    MemoryFaultError,
    MemoryImage,
    WatchdogError,
)
from repro.emulator.machine import DEFAULT_MAX_WARP_INSTS, ENGINES
from repro.ptx import parse_module


def _kernel(body, params=".param .u64 a"):
    return parse_module("""
    .entry k ( %s )
    {
        %s
    }
    """ % (params, body))["k"]


OOB_STORE = """
        ld.param.u64 %rd1, [a];
        mov.u32 %r1, %tid.x;
        mul.wide.u32 %rd2, %r1, 4;
        add.u64 %rd3, %rd1, %rd2;
        st.global.u32 [%rd3], %r1;
        exit;
"""


#: A divergent branch guards the store, so the fault lands in the middle
#: of a straight-line run, in a warp and CTA other than the first.
DIVERGENT_OOB_STORE = """
        ld.param.u64 %rd1, [a];
        mov.u32 %r1, %tid.x;
        mov.u32 %r2, %ctaid.x;
        and.b32 %r3, %r1, 1;
        setp.eq.u32 %p1, %r3, 0;
        @%p1 bra DONE;
        mad.lo.u32 %r4, %r2, 64, %r1;
        mul.wide.u32 %rd2, %r4, 4;
        add.u64 %rd3, %rd1, %rd2;
        st.global.u32 [%rd3], %r4;
        add.u32 %r5, %r4, 1;
    DONE:
        exit;
"""


class TestMemoryFault:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_oob_store_carries_context(self, engine):
        mem = MemoryImage()
        base = mem.alloc("buf", 8 * 4)  # 8 elements, 32 threads launched
        emu = Emulator(mem, engine=engine)
        with pytest.raises(MemoryFaultError) as info:
            emu.launch(_kernel(OOB_STORE), grid=1, block=32, params={"a": base})
        exc = info.value
        assert exc.kernel == "k"
        assert exc.pc == 0x20          # the st.global (5th instruction)
        assert exc.cta == 0
        assert exc.warp == 0
        assert exc.lane == 8           # first lane past the allocation
        assert exc.address == base + 8 * 4
        assert exc.space == "global"
        assert "memory fault" in str(exc)
        assert isinstance(exc, EmulationError)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_misaligned_load_faults(self, engine):
        mem = MemoryImage()
        base = mem.alloc("buf", 64)
        emu = Emulator(mem, engine=engine)
        body = """
        ld.param.u64 %rd1, [a];
        ld.global.u32 %r1, [%rd1+2];
        exit;
        """
        with pytest.raises(MemoryFaultError) as info:
            emu.launch(_kernel(body), grid=1, block=1, params={"a": base})
        assert "misaligned" in str(info.value)
        assert info.value.address == base + 2

    @pytest.mark.parametrize("engine", ENGINES)
    def test_oob_shared_store_faults(self, engine):
        mem = MemoryImage()
        emu = Emulator(mem, engine=engine)
        kernel = parse_module("""
        .entry k ( )
        {
            .shared .u32 smem[4];
            mov.u32 %r1, %tid.x;
            mul.lo.u32 %r2, %r1, 4;
            st.shared.u32 [%r2], %r1;
            exit;
        }
        """)["k"]
        with pytest.raises(MemoryFaultError) as info:
            emu.launch(kernel, grid=1, block=32, params={})
        assert info.value.space == "shared"
        assert info.value.lane == 4  # 16 bytes -> lanes 0-3 fit

    @pytest.mark.parametrize("engine", ENGINES)
    def test_divergent_fault_names_cta_warp_and_lane(self, engine):
        mem = MemoryImage()
        base = mem.alloc("buf", 100 * 4)
        emu = Emulator(mem, engine=engine)
        with pytest.raises(MemoryFaultError) as info:
            emu.launch(_kernel(DIVERGENT_OOB_STORE), grid=2, block=64,
                       params={"a": base})
        exc = info.value
        # odd threads store element 64 * ctaid + tid; the first past
        # the 100-element buffer is 101, thread 37 of CTA 1
        assert (exc.pc, exc.cta, exc.warp, exc.lane) == (0x48, 1, 1, 5)
        assert exc.address == base + 101 * 4
        assert exc.space == "global"


class TestWatchdog:
    LOOP = """
        mov.u32 %r1, 0;
    TOP:
        add.u32 %r1, %r1, 1;
        bra TOP;
        exit;
    """

    def test_budget_raises_watchdog_error(self):
        emu = Emulator(MemoryImage(), max_warp_insts=1000)
        with pytest.raises(WatchdogError) as info:
            emu.launch(_kernel(self.LOOP, params=""), grid=1, block=1,
                       params={})
        exc = info.value
        assert "instruction budget exceeded" in str(exc)
        assert exc.budget == 1000
        assert exc.kernel == "k"
        assert exc.cta == 0 and exc.warp == 0

    #: Divergent loop whose warps meet at a barrier every iteration, so
    #: the budget runs out in either warp and at any point of a run.
    DIVERGENT_LOOP = """
        mov.u32 %r1, %tid.x;
        mov.u32 %r2, 0;
    TOP:
        bar.sync 0;
        add.u32 %r2, %r2, 1;
        and.b32 %r3, %r1, 1;
        setp.eq.u32 %p1, %r3, 0;
        @%p1 bra SKIP;
        add.u32 %r4, %r4, %r2;
        mul.lo.u32 %r5, %r4, 3;
        xor.b32 %r4, %r5, %r1;
    SKIP:
        xor.b32 %r6, %r2, %r1;
        shl.b32 %r7, %r6, 2;
        bra TOP;
        exit;
    """

    #: budget -> (pc, warp) of the instruction that exceeds it (CTA 0)
    TRIPS = {1: (0x08, 0), 2: (0x10, 0), 3: (0x00, 1), 4: (0x08, 1),
             5: (0x10, 1), 6: (0x18, 0), 7: (0x20, 0), 8: (0x28, 0),
             9: (0x30, 0), 10: (0x50, 0), 11: (0x58, 0), 12: (0x60, 0),
             997: (0x10, 1), 998: (0x18, 0), 999: (0x20, 0),
             1000: (0x28, 0), 1001: (0x30, 0), 1002: (0x50, 0),
             1003: (0x58, 0)}

    @pytest.mark.parametrize("budget", sorted(TRIPS))
    @pytest.mark.parametrize("engine", ENGINES)
    def test_budget_trips_at_the_same_instruction(self, engine, budget):
        emu = Emulator(MemoryImage(), max_warp_insts=budget, engine=engine)
        with pytest.raises(WatchdogError) as info:
            emu.launch(_kernel(self.DIVERGENT_LOOP, params=""), grid=2,
                       block=64, params={})
        exc = info.value
        assert exc.budget == budget
        pc, warp = self.TRIPS[budget]
        assert (exc.pc, exc.cta, exc.warp) == (pc, 0, warp)

    def test_env_knob_sets_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_EMULATOR_MAX_WARP_INSTS", "500")
        emu = Emulator(MemoryImage())
        assert emu.max_warp_insts == 500
        with pytest.raises(WatchdogError) as info:
            emu.launch(_kernel(self.LOOP, params=""), grid=1, block=1,
                       params={})
        assert info.value.budget == 500

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_EMULATOR_MAX_WARP_INSTS", "500")
        emu = Emulator(MemoryImage(), max_warp_insts=123)
        assert emu.max_warp_insts == 123

    def test_default_budget_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_EMULATOR_MAX_WARP_INSTS", raising=False)
        assert Emulator(MemoryImage()).max_warp_insts \
            == DEFAULT_MAX_WARP_INSTS

    def test_bad_env_value_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_EMULATOR_MAX_WARP_INSTS", "lots")
        with pytest.raises(ValueError):
            Emulator(MemoryImage())


class TestBarrierDeadlock:
    def test_stuck_warp_produces_structured_report(self):
        """Force the defensive deadlock branch by making one warp stop
        without reaching the barrier (simulating a divergent-barrier
        hang)."""
        kernel = parse_module("""
        .entry k ( )
        {
            bar.sync 0;
            exit;
        }
        """)["k"]
        emu = Emulator(MemoryImage())

        real_run_warp = Emulator._run_warp

        def stuck_run_warp(self, kern, cfg, warp, shared, params):
            if warp.warp_id == 1:
                return  # never advances, never reaches the barrier
            return real_run_warp(self, kern, cfg, warp, shared, params)

        emu._run_warp = stuck_run_warp.__get__(emu, Emulator)
        with pytest.raises(BarrierDeadlockError) as info:
            emu.launch(kernel, grid=1, block=64, params={})
        exc = info.value
        assert exc.kernel == "k"
        assert exc.cta == 0
        by_warp = {st["warp"]: st for st in exc.warp_status}
        assert by_warp[0]["at_barrier"] is True
        assert by_warp[1]["at_barrier"] is False
        assert "barrier deadlock" in str(exc)
        assert "stuck" in str(exc)


class TestUnsupportedOperands:
    # the compiled engine rejects this kernel at code generation with a
    # CodegenError, which the fallback chain retries on another engine
    @pytest.mark.parametrize("engine", ("scalar", "vectorized"))
    def test_unsupported_source_operand(self, engine):
        from repro.ptx import KernelBuilder, MemRef, Reg

        b = KernelBuilder("k")
        b.emit("add.u32", Reg("%r1"), Reg("%r1"), MemRef(Reg("%r1")))
        b.emit("exit")
        emu = Emulator(MemoryImage(), engine=engine)
        with pytest.raises(EmulationError):
            emu.launch(b.build(), grid=1, block=1, params={})
