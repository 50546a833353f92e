"""Unit tests for the credit-based interconnect."""

import pytest

from repro.sim.icnt import Interconnect


def make_icnt(latency=10, credits=2, sources=2, dests=2):
    return Interconnect(num_sources=sources, num_dests=dests,
                        latency=latency, credits_per_source=credits)


class TestCredits:
    def test_credit_consumption_and_return(self):
        icnt = make_icnt(credits=1)
        assert icnt.can_inject(0)
        icnt.inject("p", 0, 0, cycle=0)
        assert not icnt.can_inject(0)
        # credit returns when the payload is delivered
        assert icnt.deliver_ready(10) == [("p", 0)]
        assert icnt.can_inject(0)

    def test_injecting_without_credit_raises(self):
        icnt = make_icnt(credits=1)
        icnt.inject("a", 0, 0, cycle=0)
        with pytest.raises(RuntimeError):
            icnt.inject("b", 0, 0, cycle=0)

    def test_per_source_credits_independent(self):
        icnt = make_icnt(credits=1)
        icnt.inject("a", 0, 0, cycle=0)
        assert icnt.can_inject(1)


class TestDelivery:
    def test_latency(self):
        icnt = make_icnt(latency=7)
        icnt.inject("p", 0, 1, cycle=3)
        assert icnt.deliver_ready(9) == []
        assert icnt.deliver_ready(10) == [("p", 1)]

    def test_destination_serialization(self):
        # two payloads to the same port arrive on consecutive cycles
        icnt = make_icnt(latency=5, credits=4)
        icnt.inject("a", 0, 0, cycle=0)
        icnt.inject("b", 1, 0, cycle=0)
        first = icnt.deliver_ready(5)
        second = icnt.deliver_ready(6)
        assert len(first) == 1 and len(second) == 1

    def test_different_destinations_parallel(self):
        icnt = make_icnt(latency=5, credits=4)
        icnt.inject("a", 0, 0, cycle=0)
        icnt.inject("b", 0, 1, cycle=0)
        assert len(icnt.deliver_ready(5)) == 2

    def test_queue_delay_accounting(self):
        icnt = make_icnt(latency=5, credits=4)
        for i in range(3):
            icnt.inject("p%d" % i, 0, 0, cycle=0)
        icnt.deliver_ready(100)
        # serialization adds 0 + 1 + 2 cycles of queueing
        assert icnt.total_queue_delay == 3
        assert icnt.mean_queue_delay() == pytest.approx(1.0)

    def test_next_delivery(self):
        icnt = make_icnt(latency=4)
        assert not icnt.pending
        assert icnt.debug_state()["next_delivery"] is None
        icnt.inject("p", 0, 0, cycle=2)
        assert icnt.pending[0][0] == 6
        assert icnt.debug_state()["next_delivery"] == 6

    def test_in_flight(self):
        icnt = make_icnt()
        icnt.inject("p", 0, 0, cycle=0)
        assert icnt.in_flight == 1
        icnt.deliver_ready(100)
        assert icnt.in_flight == 0
