"""The issue stage's warp masks, checked after every SM cycle.

The scheduler picks a warp with one bit operation because its masks
keep three facts true between cycles, and these tests assert them after
every :meth:`SMCore.cycle` of the issue-stage matrix and of two base
cases:

* every candidate is live, not at a barrier and scoreboard-ready (its
  hazards are marked when its next instruction becomes current, so a
  barrier release or an issue that leaves a pending register moves the
  warp to the waiting warps at once);
* no warp is both a candidate and waiting, both lie within the live
  warps, and a waiting warp does wait on a pending register;
* each per-kind mask is the live warps whose current instruction is of
  that kind.

Masks go stale while :attr:`SMCore.warps` changes and are rebuilt from
the warps' flags before the next issue, so a cycle that left them stale
is checked on the flags alone.
"""

import pytest

from repro.emulator.grid import make_launch
from repro.emulator.trace import TraceOp
from repro.ptx.isa import (
    PC_STRIDE, DType, Imm, Instruction, MemRef, Reg, Space)
from repro.sim import GPU, TINY
from repro.sim.core import SMCore
from tests.sim_matrix import ISSUE_CASES, make_gpu, simulate
from tests.traces import build_launch


def check_issue_masks(sm):
    live = ready = waiting = 0
    kinds = [0] * len(sm._kinds)
    for warp in sm.warps:
        if warp.trace_done:
            continue
        bit = warp.bit
        live |= bit
        kinds[warp.entry[0]] |= bit
        if warp.waiting:
            assert not warp.at_barrier
            assert warp.pending_regs & warp.entry[1]
            waiting |= bit
        elif not warp.at_barrier:
            # a candidate: ready to issue as far as the scoreboard goes
            assert not warp.pending_regs & warp.entry[1]
            ready |= bit
    if sm._dirty:
        return
    assert sm._ready & sm._waiting == 0
    assert sm._ready & ~sm._live == 0
    assert sm._waiting & ~sm._live == 0
    assert (sm._ready, sm._waiting, sm._live) == (ready, waiting, live)
    assert sm._kinds == kinds


@pytest.fixture
def checked_cycles(monkeypatch):
    """Check the masks after every SM cycle; yields the cycle count."""
    cycles = [0]
    cycle = SMCore.cycle

    def checked(sm, now):
        result = cycle(sm, now)
        check_issue_masks(sm)
        cycles[0] += 1
        return result

    monkeypatch.setattr(SMCore, "cycle", checked)
    return cycles


@pytest.mark.parametrize("app,variant",
                         ISSUE_CASES + (("bpr", "base"), ("2mm", "base")))
def test_masks_hold_after_every_cycle(app, variant, checked_cycles):
    gpu = simulate(app, make_gpu(variant))
    assert checked_cycles[0] > 0
    assert gpu.stats.issued_warp_insts > 0


def _inst(index, opcode, **fields):
    return Instruction(opcode=opcode, pc=index * PC_STRIDE, **fields)


def test_barrier_release_marks_a_pending_hazard(checked_cycles,
                                                monkeypatch):
    """Warp 0 loads r1, waits at the barrier, and reads r1 after it;
    warp 1 reaches the barrier while the load is still out.  The release
    must hand warp 0 to the scoreboard, not to the candidates."""
    load = _inst(0, "ld", dtype=DType.U32, space=Space.GLOBAL,
                 dests=(Reg("%r1"),), srcs=(MemRef(Reg("%rd1")),))
    bar = _inst(1, "bar", srcs=(Imm(0),))
    use = _inst(2, "add", dtype=DType.U32, dests=(Reg("%r2"),),
                srcs=(Reg("%r1"), Reg("%r1")))
    filler = _inst(3, "add", dtype=DType.U32, dests=(Reg("%r3"),),
                   srcs=(Reg("%r4"), Reg("%r4")))
    full = (1 << 32) - 1
    warp0 = [TraceOp(load, full, tuple((lane, 0x1000 + 4 * lane)
                                       for lane in range(32))),
             TraceOp(bar, full), TraceOp(use, full)]
    warp1 = [TraceOp(filler, full)] * 8 + [TraceOp(bar, full),
                                           TraceOp(use, full)]
    launch = build_launch([(0, 0, warp0), (0, 1, warp1)],
                          config=make_launch(1, 64))
    released_waiting = []
    wake = SMCore._wake

    def spy(sm, released):
        wake(sm, released)
        released_waiting.extend(w.trace.warp_id for w in released
                                if w.waiting)

    monkeypatch.setattr(SMCore, "_wake", spy)
    gpu = GPU(TINY)
    gpu.run_launch(launch)
    assert released_waiting == [0]
    assert gpu.stats.issued_warp_insts == len(warp0) + len(warp1)
