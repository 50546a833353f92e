"""Memory request objects that flow through the modeled hierarchy."""

from __future__ import annotations


class MemRequest:
    """One 128 B-granular memory transaction.

    A warp-level load/store is coalesced into one or more requests (one per
    distinct 128 B block touched).  The timestamps behind the paper's
    turnaround-time breakdowns (Figures 5-7) live on the owning
    :class:`~repro.sim.core.InflightMemInst`; the request keeps only
    ``t_l2_in``, the cycle it first entered its memory partition, so a
    request that retries at the L2 slice is counted there once.
    """

    __slots__ = ("block_addr", "pc", "load_class", "is_write", "is_atomic",
                 "sm_id", "partition", "inflight", "t_l2_in")

    def __init__(self, block_addr, pc, load_class, is_write=False,
                 is_atomic=False, sm_id=0, inflight=None):
        self.block_addr = block_addr
        self.pc = pc
        self.load_class = load_class   # "D", "N", or None (stores / other)
        self.is_write = is_write
        self.is_atomic = is_atomic
        self.sm_id = sm_id
        self.partition = -1
        self.inflight = inflight  # owning InflightMemInst; None: prefetch
        self.t_l2_in = -1

    def __repr__(self):
        kind = "st" if self.is_write else ("atom" if self.is_atomic else "ld")
        return "MemRequest(%s %#x pc=%#x cls=%s)" % (
            kind, self.block_addr, self.pc, self.load_class)
