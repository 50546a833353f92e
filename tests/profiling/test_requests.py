"""Tests for the per-class histograms of requests per warp load, held by
:class:`~repro.sim.coalescer.CoalescingSummary`."""

import pytest

from repro.profiling.trace_profile import profile_trace
from repro.sim.coalescer import CoalescingSummary


def summarize(run, classifications):
    return profile_trace(run.trace, classifications).coalescing


class TestHistogramObject:
    def test_record_and_stats(self):
        summary = CoalescingSummary()
        summary.record("N", 4)
        summary.record("N", 4)
        summary.record("N", 10)
        summary.record("D", 1)
        hist = summary.histogram["N"]
        assert summary.warp_loads["N"] == 3
        assert summary.requests_per_warp("N") == pytest.approx(6.0)
        assert max(hist) == 10
        assert len(hist) == 2
        assert sum(c for n, c in hist.items() if n <= 4) / 3 == \
            pytest.approx(2 / 3)
        assert summary.requests == {"D": 1, "N": 18, "other": 0}
        assert summary.uncoalesced == {"D": 0, "N": 3, "other": 0}

    def test_unknown_class_falls_into_other(self):
        summary = CoalescingSummary()
        summary.record(None, 2)
        assert summary.warp_loads["other"] == 1

    def test_empty(self):
        summary = CoalescingSummary()
        assert summary.requests_per_warp("D") == 0.0
        assert not summary.histogram["D"]
        assert summary.warp_loads == {"D": 0, "N": 0, "other": 0}


class TestWorkloadHistograms:
    def test_bfs_shapes(self, bfs_run):
        hist = summarize(bfs_run, bfs_run.classifications).histogram
        # Figure 6's claims: D loads create 1-2 requests, always
        assert max(hist["D"]) <= 2
        # the same N loads vary their request counts widely
        assert len(hist["N"]) > 3
        assert max(hist["N"]) > 4

    def test_twomm_all_deterministic(self, twomm_run):
        summary = summarize(twomm_run, twomm_run.classifications)
        assert summary.warp_loads["N"] == 0
        assert summary.warp_loads["D"] > 0

    def test_without_classifications_everything_other(self, bfs_run):
        summary = summarize(bfs_run, None)
        assert summary.warp_loads["other"] > 0
        assert summary.warp_loads["N"] == 0
