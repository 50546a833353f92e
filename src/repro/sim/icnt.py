"""Interconnection network between SMs and memory partitions.

A credit-based crossbar abstraction:

* each source holds a fixed number of credits; injecting consumes one and
  the credit returns when the payload is delivered.  A source with no
  credits cannot inject — at the L1 this is the paper's *reservation fail
  by interconnection*;
* each destination port accepts one payload per cycle; payloads racing to
  the same port serialize, which models the congestion and the
  "imbalanced service time in memory partitions" of Figures 5-7.

Deliveries are kept in a heap, so the network costs O(log n) per payload
instead of per-cycle queue shuffling.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import List, Tuple


class Interconnect:
    """One direction of the network (requests or responses)."""

    def __init__(self, num_sources, num_dests, latency, credits_per_source,
                 name="icnt"):
        self.latency = latency
        self.name = name
        self._credits = [credits_per_source] * num_sources
        self._next_free = [0] * num_dests
        #: payloads in flight, a heap of ``(deliver cycle, seq, payload,
        #: src, dst)``: ``pending[0][0]`` is the next delivery's cycle
        self.pending: List[Tuple[int, int, object, int, int]] = []
        self._seq = count()
        # statistics
        self.total_injected = 0
        self.total_queue_delay = 0
        self.max_in_flight = 0

    # -- injection ------------------------------------------------------------

    def can_inject(self, src):
        return self._credits[src] > 0

    def inject(self, payload, src, dst, cycle):
        """Send a payload; caller must have checked :meth:`can_inject`."""
        if self._credits[src] <= 0:
            raise RuntimeError("%s: source %d out of credits"
                               % (self.name, src))
        self._credits[src] -= 1
        arrival = cycle + self.latency
        deliver = max(arrival, self._next_free[dst] + 1)
        self._next_free[dst] = deliver
        self.total_injected += 1
        self.total_queue_delay += deliver - arrival
        heapq.heappush(self.pending, (deliver, next(self._seq), payload,
                                      src, dst))
        if len(self.pending) > self.max_in_flight:
            self.max_in_flight = len(self.pending)

    # -- delivery ---------------------------------------------------------------

    def deliver_ready(self, cycle):
        """Pop every payload whose delivery time has arrived.

        Returns a list of ``(payload, dst)``; the source's credit is
        returned as the payload leaves the network.
        """
        out = []
        heap = self.pending
        while heap and heap[0][0] <= cycle:
            _t, _s, payload, src, dst = heapq.heappop(heap)
            self._credits[src] += 1
            out.append((payload, dst))
        return out

    @property
    def in_flight(self):
        return len(self.pending)

    def mean_queue_delay(self):
        if not self.total_injected:
            return 0.0
        return self.total_queue_delay / self.total_injected

    def publish_metrics(self, registry, **labels):
        """Publish this direction's telemetry (labelled by ``direction``
        via the network's name, plus caller-supplied labels)."""
        registry.counter(
            "sim.icnt.injections",
            "payloads injected per network direction").inc(
            self.total_injected, direction=self.name, **labels)
        registry.counter(
            "sim.icnt.queue_delay_cycles_by_direction",
            "destination-port serialization delay per direction").inc(
            self.total_queue_delay, direction=self.name, **labels)
        registry.gauge(
            "sim.icnt.max_in_flight",
            "high-water mark of payloads in the network").set(
            self.max_in_flight, direction=self.name, **labels)

    def debug_state(self):
        """Credit and in-flight state for deadlock reports."""
        return {"name": self.name,
                "in_flight": len(self.pending),
                "next_delivery": self.pending[0][0] if self.pending else None,
                "credits": list(self._credits)}
