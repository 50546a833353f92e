"""Integration tests for the extended-suite applications (beyond Table I)."""

import numpy as np
import pytest

from repro.emulator.columnar import _KIND_ATOMIC
from repro.workloads import get_workload

SCALE = 0.25


@pytest.fixture(scope="module")
def runs():
    return {name: get_workload(name, scale=SCALE).run()
            for name in ("hotspot", "histo", "pagerank")}


class TestHotspot:
    def test_verifies(self, runs):
        assert runs["hotspot"].trace.total_warp_instructions() > 0

    def test_fully_deterministic(self, runs):
        det, nondet = runs["hotspot"].dynamic_class_split()
        assert nondet == 0 and det > 0

    def test_ping_pong_launches(self, runs):
        assert len(runs["hotspot"].trace) == 4


class TestHisto:
    def test_verifies(self, runs):
        assert runs["histo"].trace.total_warp_instructions() > 0

    def test_atomics_dominate_stores(self, runs):
        trace = runs["histo"].trace
        atomics = sum(int(((launch.kind & 3) == _KIND_ATOMIC).sum())
                      for launch in trace)
        assert atomics > 0

    def test_saturation_applied(self, runs):
        run = runs["histo"]
        bins = run.memory.read_array("bins", np.uint32,
                                     run.workload.num_bins)
        assert bins.max() <= run.workload.LIMIT

    def test_loads_deterministic_but_atomics_data_dependent(self, runs):
        # the classifier covers loads; histo's loads are deterministic —
        # its irregularity lives entirely in the atomic target addresses
        det, nondet = runs["histo"].dynamic_class_split()
        assert nondet == 0


class TestPageRank:
    def test_verifies(self, runs):
        assert runs["pagerank"].trace.total_warp_instructions() > 0

    def test_mostly_nondeterministic(self, runs):
        det, nondet = runs["pagerank"].dynamic_class_split()
        assert nondet > det

    def test_rank_is_a_distribution_up_to_dangling_loss(self, runs):
        run = runs["pagerank"]
        n = run.workload.graph.num_nodes
        rank = run.memory.read_array(run.workload.final_buffer,
                                     np.float32, n)
        assert (rank > 0).all()
        assert rank.sum() <= 1.0 + 1e-3


class TestExtendedInPipeline:
    def test_simulates_through_timing_model(self, runs):
        from repro.sim import GPU, TINY
        run = runs["pagerank"]
        gpu = GPU(TINY)
        for launch in run.trace:
            gpu.run_launch(launch,
                           run.classifications[launch.kernel_name])
        assert gpu.stats.classes["N"].warp_insts > 0

    def test_histo_atomics_reach_dram(self, runs):
        from repro.sim import GPU, TINY
        run = runs["histo"]
        gpu = GPU(TINY)
        for launch in run.trace:
            gpu.run_launch(launch,
                           run.classifications[launch.kernel_name])
        assert gpu.stats.dram_reads > 0
