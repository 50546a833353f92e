"""A memory partition: ROP pipe, L2 cache slice, and its DRAM channel.

"Apart from the per-SM private memory sub-system, SMs also share a large
level-2 cache which is partitioned and accessed by SMs via an
interconnection network.  ...  Each memory controller is associated with
one or more level-2 cache partitions." (Section III.)

The model per partition:

* requests delivered by the interconnect enter a ROP pipeline
  (``rop_latency`` cycles of fixed delay, Table II),
* the L2 slice services one request per cycle: hits respond after
  ``l2_hit_latency``; misses reserve a line + MSHR entry and queue on the
  DRAM channel.  When the slice cannot reserve (all ways in the set
  reserved, or MSHRs full) the head request retries next cycle —
  head-of-line blocking that propagates congestion upstream,
* the DRAM channel serves one 128 B burst every ``dram_burst_interval``
  cycles (bandwidth) with ``dram_latency`` pipeline delay,
* responses compete for the partition's response-network credits; without
  a credit they wait, adding to the "wasted cycles in memory partitions"
  the paper measures in Figures 5-7.

The GPU ticks a partition only when it is due (``wake_at``): when a
delivered request leaves the ROP pipe, when its next internal event
falls due, or when a response credit returns while responses wait for
one.
"""

from __future__ import annotations

import heapq
from collections import deque
from itertools import count
from math import inf
from typing import List, Tuple

from .cache import Cache, Outcome
from .request import MemRequest


class MemoryPartition:
    """One L2 slice plus its DRAM channel."""

    def __init__(self, pid, config, stats):
        self.pid = pid
        self.config = config
        self.stats = stats
        self.l2 = Cache(
            num_sets=config.l2_num_sets,
            assoc=config.l2_assoc,
            line_size=config.l2_line_size,
            mshr_entries=config.l2_mshr_entries,
            mshr_merge=config.l2_mshr_merge,
            name="L2[%d]" % pid,
        )
        self._seq = count()
        # requests in the ROP pipe, keyed by the cycle they reach the L2
        self._input: List[Tuple[int, int, MemRequest]] = []
        # L2 hits waiting out the L2 access latency
        self._resp_heap: List[Tuple[int, int, MemRequest]] = []
        # responses ready to inject into the response network
        self._resp_ready: deque = deque()
        # DRAM channel
        self._dram_queue: deque = deque()
        self._dram_busy_until = 0
        self._dram_heap: List[Tuple[int, int, MemRequest]] = []
        #: the next cycle this partition must tick
        self.wake_at = inf
        # per-partition telemetry (SimStats only keeps GPU-wide sums;
        # these expose the partition imbalance the paper attributes
        # turnaround spread to)
        self.l2_hits = 0
        self.l2_misses = 0
        self.stall_cycles = 0
        self.dram_reads = 0
        self.dram_writes = 0
        self.requests_received = 0

    # -- ingress ---------------------------------------------------------------

    def receive(self, request, now):
        """A request was delivered by the request network."""
        ready = now + self.config.rop_latency
        self.requests_received += 1
        heapq.heappush(self._input, (ready, next(self._seq), request))
        if ready < self.wake_at:
            self.wake_at = ready

    def credit_returned(self, now):
        """One of this partition's responses left the response network."""
        if self._resp_ready and self.wake_at > now:
            self.wake_at = now

    # -- per-cycle work ----------------------------------------------------------

    def cycle(self, now, resp_icnt):
        """Advance the partition one cycle; returns True if it did work.

        Each stage runs only when the head of its queue is due.
        Afterwards :attr:`wake_at` is the next cycle the partition must
        tick: its earliest internal event, at least one cycle on.
        Responses waiting for a response-network credit do not count: a
        tick injects until the credits run out, and
        :meth:`credit_returned` wakes the partition.
        """
        worked = False
        dram_heap, resp_heap, inputs = \
            self._dram_heap, self._resp_heap, self._input
        if dram_heap and dram_heap[0][0] <= now:
            self._dram_complete(now)
            worked = True
        if self._dram_queue and self._dram_busy_until <= now:
            self._dram_issue(now)
            worked = True
        if inputs and inputs[0][0] <= now:
            self._l2_service(now)
            worked = True
        if resp_heap and resp_heap[0][0] <= now:
            self._collect_responses(now)
            worked = True
        if self._resp_ready and resp_icnt.can_inject(self.pid):
            self._inject_responses(now, resp_icnt)
            worked = True
        wake = inputs[0][0] if inputs else inf
        if resp_heap and resp_heap[0][0] < wake:
            wake = resp_heap[0][0]
        if dram_heap and dram_heap[0][0] < wake:
            wake = dram_heap[0][0]
        if self._dram_queue and self._dram_busy_until < wake:
            wake = self._dram_busy_until
        self.wake_at = now + 1 if wake <= now else wake
        return worked

    def _l2_service(self, now):
        """Serve the due head of the ROP pipe."""
        ready, seq, req = heapq.heappop(self._input)
        if req.t_l2_in < 0:
            req.t_l2_in = now
            if req.inflight is not None:
                req.inflight.note_l2_in(now)

        if req.is_write:
            # write-through, no-allocate; keep the L2 coherent by evicting
            self.l2.write_touch(req.block_addr)
            self._dram_queue.append(req)
            return

        outcome = self.l2.lookup(req.block_addr)
        if outcome is Outcome.HIT:
            self.l2.commit_hit(req.block_addr)
            self.stats.record_l2_result(True, req.load_class)
            self.l2_hits += 1
            heapq.heappush(self._resp_heap,
                           (now + self.config.l2_hit_latency,
                            next(self._seq), req))
        elif outcome is Outcome.HIT_RESERVED:
            self.l2.commit_hit_reserved(req.block_addr, req)
            self.stats.record_l2_result(True, req.load_class)
            self.l2_hits += 1
        elif outcome is Outcome.MISS:
            self.l2.commit_miss(req.block_addr, req)
            self.stats.record_l2_result(False, req.load_class)
            self.l2_misses += 1
            self._dram_queue.append(req)
        else:
            # reservation failure at the slice: head-of-line retry
            self.stats.l2_stall_cycles += 1
            self.stall_cycles += 1
            heapq.heappush(self._input, (now + 1, seq, req))

    def _dram_issue(self, now):
        """Start the queue head's burst on the (free) DRAM channel."""
        req = self._dram_queue.popleft()
        self._dram_busy_until = now + self.config.dram_burst_interval
        done = now + self.config.dram_latency + self.config.dram_burst_interval
        if req.is_write:
            self.stats.dram_writes += 1
            self.dram_writes += 1
        else:
            self.stats.dram_reads += 1
            self.dram_reads += 1
        heapq.heappush(self._dram_heap, (done, next(self._seq), req))

    def _dram_complete(self, now):
        while self._dram_heap and self._dram_heap[0][0] <= now:
            _t, _s, req = heapq.heappop(self._dram_heap)
            if req.is_write:
                continue
            waiters = self.l2.fill(req.block_addr)
            if req not in waiters:
                waiters.append(req)
            self._resp_ready.extend(waiters)

    def _collect_responses(self, now):
        while self._resp_heap and self._resp_heap[0][0] <= now:
            _t, _s, req = heapq.heappop(self._resp_heap)
            self._resp_ready.append(req)

    def _inject_responses(self, now, resp_icnt):
        while self._resp_ready and resp_icnt.can_inject(self.pid):
            req = self._resp_ready.popleft()
            resp_icnt.inject(req, self.pid, req.sm_id, now)

    # -- observability -----------------------------------------------------------

    def publish_metrics(self, registry, **labels):
        """Publish this partition's telemetry (labelled ``partition=N``
        plus caller labels — per-partition attribution SimStats' global
        sums cannot provide)."""
        pid = str(self.pid)
        registry.counter(
            "sim.partition.requests",
            "requests delivered to each memory partition").inc(
            self.requests_received, partition=pid, **labels)
        registry.counter(
            "sim.partition.l2_hits",
            "L2 slice hits (incl. hit-reserved) per partition").inc(
            self.l2_hits, partition=pid, **labels)
        registry.counter(
            "sim.partition.l2_misses",
            "L2 slice misses per partition").inc(
            self.l2_misses, partition=pid, **labels)
        registry.counter(
            "sim.partition.stall_cycles",
            "head-of-line retry cycles at the L2 slice").inc(
            self.stall_cycles, partition=pid, **labels)
        registry.counter(
            "sim.partition.dram_reads",
            "DRAM read bursts per channel").inc(
            self.dram_reads, partition=pid, **labels)
        registry.counter(
            "sim.partition.dram_writes",
            "DRAM write bursts per channel").inc(
            self.dram_writes, partition=pid, **labels)
        self.l2.mshr.publish_metrics(registry, level="l2",
                                     partition=pid, **labels)

    # -- diagnostics ---------------------------------------------------------

    @property
    def busy(self):
        return bool(self._input or self._resp_heap or self._resp_ready
                    or self._dram_queue or self._dram_heap)

    def debug_state(self):
        """Queue depths and in-flight L2 misses for deadlock reports."""
        return {"partition": self.pid,
                "rop_queue": len(self._input),
                "l2_mshr": self.l2.mshr.debug_state(),
                "dram_queue": len(self._dram_queue),
                "dram_in_flight": len(self._dram_heap),
                "dram_busy_until": self._dram_busy_until,
                "resp_wait_latency": len(self._resp_heap),
                "resp_wait_credit": len(self._resp_ready)}
