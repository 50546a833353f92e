"""Memory request objects that flow through the modeled hierarchy."""

from __future__ import annotations



class MemRequest:
    """One 128 B-granular memory transaction.

    A warp-level load/store is coalesced into one or more requests (one per
    distinct 128 B block touched).  The request keeps the timestamps the
    paper's turnaround-time breakdowns (Figures 5-7) are computed from:

    ``t_issue``
        warp instruction issued to the LD/ST unit,
    ``t_accept``
        the L1 accepted the request (hit, hit-reserved, or miss reserved) —
        the end of its reservation-fail stalls,
    ``t_l2_in``
        delivered to its memory partition,
    ``t_l2_out``
        data produced by the partition (L2 hit or DRAM return),
    ``t_back``
        data written back at the SM.
    """

    __slots__ = ("block_addr", "pc", "load_class", "is_write", "is_atomic",
                 "is_prefetch", "sm_id", "partition", "inflight",
                 "t_issue", "t_accept", "t_l2_in", "t_l2_out", "t_back")

    def __init__(self, block_addr, pc, load_class, is_write=False,
                 is_atomic=False, sm_id=0, inflight=None,
                 is_prefetch=False):
        self.block_addr = block_addr
        self.pc = pc
        self.load_class = load_class   # "D", "N", or None (stores / other)
        self.is_write = is_write
        self.is_atomic = is_atomic
        self.is_prefetch = is_prefetch
        self.sm_id = sm_id
        self.partition = -1
        self.inflight = inflight       # owning InflightMemInst (loads/atomics)
        self.t_issue = -1
        self.t_accept = -1
        self.t_l2_in = -1
        self.t_l2_out = -1
        self.t_back = -1

    def __repr__(self):
        kind = "st" if self.is_write else ("atom" if self.is_atomic else "ld")
        return "MemRequest(%s %#x pc=%#x cls=%s)" % (
            kind, self.block_addr, self.pc, self.load_class)
