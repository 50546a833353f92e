"""What-if study: perfectly coalesced non-deterministic loads.

The paper's central observation is that non-deterministic loads hurt
*because they do not coalesce*.  This ablation quantifies exactly that:
it rewrites every non-deterministic load in a trace so its active lanes
compact into the *minimal* number of 128 B blocks — chosen from the
blocks the access actually touched, so temporal locality across
executions is preserved — and re-simulates.  The speedup is the
headroom a perfect coalescing mechanism (or data layout) could unlock;
everything else (instruction stream, dependencies, lane counts, the
touched data) is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from ..emulator.columnar import rewrite_global_loads
from ..emulator.trace import TraceOp
from ..sim.config import LINE_BYTES
from ..sim.gpu import GPU
from .warp_split import nondet_pcs

WORD = 4


def coalesce_op(op, line_bytes=LINE_BYTES):
    """A copy of ``op`` whose lanes pack into the fewest possible blocks,
    drawn from the blocks the original access touched."""
    words_per_block = line_bytes // WORD
    touched = sorted({addr // line_bytes for _lane, addr in op.addresses})
    addresses = []
    for i, (lane, _addr) in enumerate(op.addresses):
        block = touched[i // words_per_block]
        word = i % words_per_block
        addresses.append((lane, block * line_bytes + word * WORD))
    return TraceOp(op.inst, op.active_mask, tuple(addresses))


def coalesced_launch(launch_trace, classification, line_bytes=LINE_BYTES):
    """Transformed copy of a launch with N loads perfectly coalesced."""
    return rewrite_global_loads(
        launch_trace, nondet_pcs(classification),
        lambda op: [coalesce_op(op, line_bytes)])


@dataclass(frozen=True)
class CoalesceOutcome:
    """Before/after metrics for the perfect-coalescing study."""

    label: str
    cycles: int
    n_requests_per_warp: float
    reservation_fail_fraction: float
    mean_n_turnaround: float


def _outcome(label, stats):
    n = stats.classes["N"]
    return CoalesceOutcome(
        label=label,
        cycles=stats.cycles,
        n_requests_per_warp=n.requests_per_warp(),
        reservation_fail_fraction=stats.reservation_fail_fraction(),
        mean_n_turnaround=n.mean_turnaround(),
    )


def compare_perfect_coalescing(run, config):
    """Simulate an application as-is and with oracle-coalesced N loads.

    Returns ``{"baseline": CoalesceOutcome, "coalesced": ...}``.
    """
    baseline = GPU(config).run_application(run.trace, run.classifications)
    oracle = GPU(config).run_application(
        run.trace, run.classifications,
        rewrite=partial(coalesced_launch, line_bytes=config.l1_line_size))
    return {
        "baseline": _outcome("baseline", baseline),
        "coalesced": _outcome("perfectly coalesced", oracle),
    }
