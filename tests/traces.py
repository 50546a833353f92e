"""Hand-built columnar launch traces for unit tests.

Tests describe a launch as ``(cta_id, warp_id, ops)`` triples, each op a
:class:`~repro.emulator.trace.TraceOp`, and get back the sealed
:class:`~repro.emulator.columnar.ColumnarLaunchTrace` the emulator would
have produced for that op stream.
"""

from repro.emulator.columnar import ColumnarLaunchTrace
from repro.emulator.grid import make_launch
from repro.ptx.isa import PC_STRIDE, Instruction


def build_launch(warps, config=None, kernel_name="k", shared_size=0,
                 instructions=None):
    """A sealed :class:`ColumnarLaunchTrace` holding ``warps``.

    ``warps`` is an iterable of ``(cta_id, warp_id, ops)``.  Without an
    explicit ``instructions`` table one is assembled from the ops' own
    instructions, keyed by pc; pcs no op uses hold an ``exit`` filler.
    Two different instructions at one pc are a test bug and raise.
    """
    warps = [(cta, warp, list(ops)) for cta, warp, ops in warps]
    if instructions is None:
        by_pc = {}
        for _cta, _warp, ops in warps:
            for op in ops:
                seen = by_pc.setdefault(op.pc, op.inst)
                if seen != op.inst:
                    raise ValueError("two instructions at pc %#x" % op.pc)
        count = max(by_pc) // PC_STRIDE + 1 if by_pc else 0
        instructions = [by_pc.get(i * PC_STRIDE)
                        or Instruction(opcode="exit", pc=i * PC_STRIDE)
                        for i in range(count)]
    launch = ColumnarLaunchTrace(kernel_name, config or make_launch(1, 32),
                                 instructions, shared_size=shared_size)
    for cta, warp_id, ops in warps:
        warp = launch.new_warp(cta, warp_id)
        for op in ops:
            warp.append(op.inst, op.active_mask, op.addresses, op.values)
    return launch.seal()
