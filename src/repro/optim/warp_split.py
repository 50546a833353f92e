"""Section X.A ablation: sub-warp splitting of non-deterministic loads.

"To avoid bursty memory traffic generation by non-deterministic loads,
we suggest exploring techniques that partition non-deterministic loads
into multiple sub-loads using warp splitting algorithms.  Each sub-warp
then generates only a subset of memory requests."

Implemented as a trace transformation: every non-deterministic global
load whose lanes touch more than ``max_requests`` distinct 128 B blocks
is replaced by several sub-warp loads, each covering lanes that fit in
``max_requests`` blocks.  The transformed trace replays through the
unchanged timing model, so the resource-burst relief is measured, not
assumed.
"""

from __future__ import annotations

from ..emulator.columnar import rewrite_global_loads
from ..emulator.trace import TraceOp
from ..sim.config import LINE_BYTES


def split_op(op, max_requests, line_bytes=LINE_BYTES):
    """Split one memory trace-op into sub-warp ops of bounded footprint.

    Greedy contract: the op's distinct ``line_bytes`` blocks are taken
    in ascending block-address order and packed whole into consecutive
    sub-warps of at most ``max_requests`` blocks each; every lane access
    joins the sub-warp that owns its block, and each sub-warp's accesses
    keep ascending ``(lane, address)`` order.  Grouping therefore
    depends only on the *multiset* of addresses — permuting the lane
    iteration order of an equal address set yields the same sub-warp
    block partition (the earlier lane-order greedy admitted a lane whose
    block was already in the current group even when a later flush would
    have grouped it better, so the split was iteration-order
    sensitive).  Ops touching at most ``max_requests`` blocks are
    returned unchanged; ``max_requests`` must be at least 1.
    """
    if max_requests < 1:
        raise ValueError("max_requests must be at least 1, got %r"
                         % (max_requests,))
    blocks = sorted({addr // line_bytes for _lane, addr in op.addresses})
    if len(blocks) <= max_requests:
        return [op]
    group_of = {block: i // max_requests for i, block in enumerate(blocks)}
    groups = [[] for _ in range((len(blocks) + max_requests - 1)
                               // max_requests)]
    for lane, addr in sorted(op.addresses):
        groups[group_of[addr // line_bytes]].append((lane, addr))
    ops = []
    for group in groups:
        mask = 0
        for lane, _addr in group:
            mask |= 1 << lane
        ops.append(TraceOp(op.inst, mask, tuple(group)))
    return ops


def split_launch(launch_trace, classification, max_requests=4,
                 line_bytes=LINE_BYTES):
    """Transformed copy of a launch trace with N loads sub-warp split."""
    return rewrite_global_loads(
        launch_trace, nondet_pcs(classification),
        lambda op: split_op(op, max_requests, line_bytes))


def nondet_pcs(classification):
    """The PCs of a kernel's non-deterministic loads (none without a
    classification)."""
    if classification is None:
        return set()
    return {ld.pc for ld in classification if not ld.is_deterministic}

