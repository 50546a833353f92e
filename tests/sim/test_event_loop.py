"""The wake-time simulator loop against a per-cycle oracle.

:class:`PerCycle` replaces the GPU's loop with the plain cycle-by-cycle
tick: both networks deliver and every SM and memory partition ticks on
every cycle, so no component ever sleeps across a cycle and no slept
cycle is ever accounted in bulk.  The real loop must reproduce its
statistics and registry snapshot exactly — over the golden matrix, and
over tiny configurations that make L1 retries, credit starvation and
unit contention the common case.  Every oracle run also counts the
component ticks, so the comparison cannot quietly pit the fast loop
against itself.
"""

import contextlib
from collections import Counter

import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.experiments.runner import BENCH_CONFIG
from repro.sim.config import TINY
from repro.sim.core import SMCore
from repro.sim.gpu import SimulationError
from repro.sim.memory_partition import MemoryPartition
from tests.sim_matrix import (
    ISSUE_CASES, SIM_CASES, VARIANT_APPS, make_gpu, sim_document, simulate)


class PerCycle:
    """GPU mixin: the plain loop, every component ticks on every cycle."""

    def _run_until_drained(self):
        start = self.now
        sms, partitions = self.sms, self.partitions
        while any(sm.ctas for sm in sms) or (
                self._scheduler is not None and self._scheduler.remaining):
            self.now += 1
            now = self.now
            if now - start > self.max_cycles:
                raise SimulationError("oracle cycle budget exceeded")
            for req, dst in self.req_icnt.deliver_ready(now):
                partitions[dst].receive(req, now)
                sms[req.sm_id].credit_returned(now)
            for req, dst in self.resp_icnt.deliver_ready(now):
                sms[dst].receive_response(req, now)
                partitions[req.partition].credit_returned(now)
            for partition in partitions:
                partition.cycle(now, self.resp_icnt)
            for sm in sms:
                sm.cycle(now)
        self._drained()


@contextlib.contextmanager
def counting_ticks(counts):
    """Count ``SMCore.cycle`` and ``MemoryPartition.cycle`` calls into
    ``counts``, keyed by class."""
    originals = {cls: cls.cycle for cls in (SMCore, MemoryPartition)}

    def counted(cls, original):
        def cycle(self, *args):
            counts[cls] += 1
            return original(self, *args)
        return cycle

    for cls, original in originals.items():
        cls.cycle = counted(cls, original)
    try:
        yield
    finally:
        for cls, original in originals.items():
            cls.cycle = original


def assert_same_as_oracle(app, variant, config):
    fast = simulate(app, make_gpu(variant, config=config))
    oracle = make_gpu(variant, PerCycle, config=config)
    # a launch can take no longer than the whole fast run
    oracle.max_cycles = fast.now
    counts = Counter()
    marks = [(0, 0, 0)]

    def mark(gpu):
        marks.append((gpu.now, counts[SMCore], counts[MemoryPartition]))

    with counting_ticks(counts):
        slow = simulate(app, oracle, after_launch=mark)
    # per launch, the oracle ticked every SM and partition every cycle
    for (now0, sm0, part0), (now1, sm1, part1) in zip(marks, marks[1:]):
        assert sm1 - sm0 == (now1 - now0) * slow.config.num_sms
        assert part1 - part0 == (now1 - now0) * slow.config.num_partitions
    assert slow.stats.cycles == fast.stats.cycles > 0
    assert sim_document(app, slow) == sim_document(app, fast)


@pytest.mark.parametrize("app,variant", SIM_CASES + ISSUE_CASES)
def test_matrix_matches_per_cycle_oracle(app, variant):
    assert_same_as_oracle(app, variant, BENCH_CONFIG)


# no shrinking: it would rerun the slow per-cycle oracle for minutes, and
# a derandomized failure reproduces as generated
@settings(max_examples=12, deadline=None, derandomize=True,
          phases=(Phase.explicit, Phase.generate))
@given(app=st.sampled_from(VARIANT_APPS),
       variant=st.sampled_from(("base", "gto", "stride")),
       l1_mshr_entries=st.integers(1, 4),
       icnt_credits_per_sm=st.integers(1, 2),
       icnt_credits_per_partition=st.integers(1, 2),
       ldst_queue_size=st.integers(1, 2),
       issue_width=st.integers(1, 2),
       l2_mshr_entries=st.integers(1, 4))
def test_tiny_configs_match_per_cycle_oracle(app, variant, **knobs):
    assert_same_as_oracle(app, variant, TINY.scaled(**knobs))
