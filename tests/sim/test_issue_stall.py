"""Tests for the issue-stall breakdown instrumentation."""

import pytest

from repro.sim import GPU, TINY


def run_app(run, config=TINY):
    gpu = GPU(config)
    for launch in run.trace:
        gpu.run_launch(launch, run.classifications[launch.kernel_name])
    return gpu.stats


class TestIssueStall:
    def test_fractions_sum_to_one(self, bfs_run):
        stats = run_app(bfs_run)
        fractions = stats.issue_stall_fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)
        assert set(fractions) == {"scoreboard", "unit_busy", "barrier",
                                  "drained", "issued"}

    def test_memory_bound_app_stalls_on_scoreboard(self, bfs_run):
        stats = run_app(bfs_run)
        fractions = stats.issue_stall_fractions()
        # graph traversal waits on loads: scoreboard dominates
        assert fractions["scoreboard"] > fractions["unit_busy"]
        assert fractions["scoreboard"] > 0.3

    def test_stall_reason_classification(self):
        """Direct unit check of the reason priority."""
        from repro.sim.core import SMCore
        from repro.sim.icnt import Interconnect
        from repro.sim.stats import SimStats
        sm = SMCore(0, TINY, SimStats(),
                    Interconnect(1, 1, 1, 4), lambda *_a: None)

        class FakeWarp:
            trace_done = False
            at_barrier = False
        w = FakeWarp()
        sm.warps = [w]
        w.trace_done = True
        assert sm.stall_reason() == "drained"
        w.trace_done = False
        w.at_barrier = True
        assert sm.stall_reason() == "barrier"

    def test_empty_stats(self):
        from repro.sim.stats import SimStats
        assert SimStats().issue_stall_fractions() == {}
