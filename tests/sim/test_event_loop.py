"""The wake-time simulator loop against a per-cycle oracle.

:class:`PerCycle` wakes every SM and every memory partition on every
cycle, so no component ever sleeps across a cycle and no slept cycle is
ever accounted in bulk: it is the plain cycle-by-cycle tick.  The real
loop must reproduce its statistics and registry snapshot exactly — over
the golden matrix, and over tiny configurations that make L1 retries,
credit starvation and unit contention the common case.
"""

import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.experiments.runner import BENCH_CONFIG
from repro.sim.config import TINY
from tests.sim_matrix import (
    ISSUE_CASES, SIM_CASES, VARIANT_APPS, make_gpu, sim_document, simulate)


class PerCycle:
    """GPU mixin: every component is due on every cycle."""

    def _next_cycle(self):
        self.now += 1
        for component in self._components:
            component.wake_at = self.now
        return self.now


def assert_same_as_oracle(app, variant, config):
    fast = simulate(app, make_gpu(variant, config=config))
    slow = simulate(app, make_gpu(variant, PerCycle, config=config))
    assert slow.stats.cycles == fast.stats.cycles
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
