"""Unit tests for the L2-slice + DRAM-channel partition model."""

import math

from repro.sim.config import TINY
from repro.sim.icnt import Interconnect
from repro.sim.memory_partition import MemoryPartition
from repro.sim.request import MemRequest
from repro.sim.stats import SimStats


def make_partition():
    stats = SimStats()
    partition = MemoryPartition(0, TINY, stats)
    resp = Interconnect(num_sources=TINY.num_partitions,
                        num_dests=TINY.num_sms,
                        latency=TINY.icnt_latency,
                        credits_per_source=4)
    return partition, resp, stats


def load_req(block=0x1000, cls="N"):
    return MemRequest(block_addr=block, pc=8, load_class=cls, sm_id=0)


def drain(partition, resp, until=10_000):
    """Run the partition until it responds; returns (cycle, responses)."""
    for cycle in range(until):
        partition.cycle(cycle, resp)
        delivered = resp.deliver_ready(cycle)
        if delivered:
            return cycle, delivered
    return until, []


class TestRequestFlow:
    def test_rop_latency_delays_l2(self):
        partition, resp, stats = make_partition()
        req = load_req()
        partition.receive(req, now=0)
        # before ROP latency elapses nothing reaches the L2
        for cycle in range(TINY.rop_latency):
            partition.cycle(cycle, resp)
        assert req.t_l2_in == -1
        partition.cycle(TINY.rop_latency, resp)
        assert req.t_l2_in == TINY.rop_latency

    def test_miss_goes_to_dram_and_returns(self):
        partition, resp, stats = make_partition()
        req = load_req()
        partition.receive(req, now=0)
        cycle, delivered = drain(partition, resp)
        assert delivered[0][0] is req
        assert delivered[0][1] == req.sm_id
        assert stats.dram_reads == 1
        assert cycle > req.t_l2_in > 0

    def test_second_access_hits_l2(self):
        partition, resp, stats = make_partition()
        first = load_req()
        partition.receive(first, now=0)
        drain(partition, resp)
        second = load_req()
        partition.receive(second, now=1000)
        drain(partition, resp)
        assert stats.classes["N"].l2_hit == 1
        assert stats.classes["N"].l2_miss == 1
        assert stats.dram_reads == 1

    def test_concurrent_same_block_merges_in_l2_mshr(self):
        partition, resp, stats = make_partition()
        a, b = load_req(), load_req()
        partition.receive(a, now=0)
        partition.receive(b, now=1)
        cycle = 0
        responses = []
        while len(responses) < 2 and cycle < 10_000:
            partition.cycle(cycle, resp)
            responses.extend(resp.deliver_ready(cycle))
            cycle += 1
        assert len(responses) == 2
        assert stats.dram_reads == 1  # one fill serves both


class TestStores:
    def test_store_consumes_dram_write_bandwidth(self):
        partition, resp, stats = make_partition()
        store = MemRequest(block_addr=0x2000, pc=8, load_class=None,
                           is_write=True, sm_id=0)
        partition.receive(store, now=0)
        for cycle in range(1000):
            partition.cycle(cycle, resp)
        assert stats.dram_writes == 1
        assert resp.in_flight == 0  # no response for stores

    def test_store_invalidates_l2_line(self):
        partition, resp, stats = make_partition()
        req = load_req(block=0x3000)
        partition.receive(req, now=0)
        drain(partition, resp)
        assert partition.l2.contains_valid(0x3000)
        store = MemRequest(block_addr=0x3000, pc=8, load_class=None,
                           is_write=True, sm_id=0)
        partition.receive(store, now=2000)
        for cycle in range(2000, 3000):
            partition.cycle(cycle, resp)
        assert not partition.l2.contains_valid(0x3000)


class TestDRAMBandwidth:
    def test_bursts_serialize(self):
        partition, resp, stats = make_partition()
        blocks = [0x1000 + i * TINY.l2_num_sets * 128 * 2
                  for i in range(4)]
        for i, block in enumerate(blocks):
            partition.receive(load_req(block=block), now=0)
        cycle = 0
        times = []
        while len(times) < 4 and cycle < 20_000:
            partition.cycle(cycle, resp)
            times.extend(cycle for _ in resp.deliver_ready(cycle))
            cycle += 1
        assert len(times) == 4
        # DRAM services one burst per interval: responses are spread out
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(g >= TINY.dram_burst_interval for g in gaps if g > 0)


class TestIdleSupport:
    def test_wake_at_tracks_the_next_event(self):
        partition, resp, _ = make_partition()
        assert partition.wake_at == math.inf
        partition.receive(load_req(), now=0)
        assert partition.wake_at == TINY.rop_latency
        # a tick before the request leaves the ROP pipe does nothing
        assert not partition.cycle(1, resp)
        assert partition.wake_at == TINY.rop_latency
        # the L2 miss queues on DRAM, which is due the next cycle
        assert partition.cycle(TINY.rop_latency, resp)
        assert partition.wake_at == TINY.rop_latency + 1

    def test_busy_flag(self):
        partition, resp, _ = make_partition()
        assert not partition.busy
        partition.receive(load_req(), now=0)
        assert partition.busy
