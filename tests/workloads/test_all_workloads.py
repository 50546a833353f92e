"""Integration tests: every Table I application runs, verifies against
its host reference, and classifies as the paper expects."""

import pytest

from repro.workloads import WORKLOADS, get_workload, workload_names

#: per-app classification expectations derived from the paper's Figure 1:
#: apps marked True must have *only* deterministic dynamic loads; apps
#: marked False must execute a significant non-deterministic share.
ALL_DETERMINISTIC = {
    "2mm": True, "gaus": True, "grm": True, "lu": True, "spmv": False,
    "htw": True, "mriq": True, "dwt": True, "bpr": True, "srad": True,
    "bfs": False, "sssp": False, "ccl": False, "mst": False, "mis": False,
}

SCALE = 0.25


@pytest.fixture(scope="module")
def runs():
    """Run all 15 applications once (verification happens inside run())."""
    return {name: get_workload(name, scale=SCALE).run()
            for name in workload_names()}


class TestRegistry:
    def test_fifteen_table1_workloads(self):
        assert len(workload_names()) == 15

    def test_extended_suite(self):
        assert len(WORKLOADS) == 18
        assert workload_names(include_extended=True)[-3:] == [
            "hotspot", "histo", "pagerank"]

    def test_table1_order(self):
        assert workload_names() == [
            "2mm", "gaus", "grm", "lu", "spmv",
            "htw", "mriq", "dwt", "bpr", "srad",
            "bfs", "sssp", "ccl", "mst", "mis"]

    def test_categories(self):
        assert workload_names("linear") == ["2mm", "gaus", "grm", "lu",
                                            "spmv"]
        assert workload_names("image") == ["htw", "mriq", "dwt", "bpr",
                                           "srad"]
        assert workload_names("graph") == ["bfs", "sssp", "ccl", "mst",
                                           "mis"]

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            get_workload("doom")

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            get_workload("bfs", scale=0)

    @pytest.mark.parametrize("scale", [-0.5, float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_or_negative_scale(self, scale):
        with pytest.raises(ValueError, match="positive finite"):
            get_workload("gaus", scale=scale)


@pytest.mark.parametrize("name", workload_names())
class TestEveryWorkload:
    def test_runs_and_verifies(self, runs, name):
        run = runs[name]
        assert run.trace.total_warp_instructions() > 0

    def test_has_global_loads(self, runs, name):
        assert runs[name].trace.global_load_warp_count() > 0

    def test_classification_matches_paper(self, runs, name):
        det, nondet = runs[name].dynamic_class_split()
        assert det + nondet > 0
        if ALL_DETERMINISTIC[name]:
            assert nondet == 0, (
                "%s must be fully deterministic (Figure 1)" % name)
        else:
            assert nondet > 0, (
                "%s must execute non-deterministic loads (Figure 1)" % name)

    def test_every_kernel_classified(self, runs, name):
        run = runs[name]
        for launch in run.trace:
            assert launch.kernel_name in run.classifications

    def test_metadata(self, runs, name):
        w = runs[name].workload
        assert w.category in ("linear", "image", "graph")
        assert w.description
        assert w.data_set


class TestSpecificShapes:
    def test_spmv_has_three_nondet_static_loads(self, runs):
        result = runs["spmv"].classifications["spmv_csr"]
        assert len(result.nondeterministic) == 3
        assert len(result.deterministic) == 2

    def test_bfs_kernel1_matches_code1(self, runs):
        result = runs["bfs"].classifications["bfs_kernel1"]
        # mask/cost/row_ptr loads deterministic; edges/visited N
        assert len(result.deterministic) == 4
        assert len(result.nondeterministic) == 2

    def test_graph_apps_issue_many_launches(self, runs):
        # iterative host loops: bfs/sssp relaunch until a stop flag clears
        assert len(runs["bfs"].trace) >= 4
        assert len(runs["sssp"].trace) >= 4

    def test_image_apps_use_shared_memory(self, runs):
        shared = sum(runs[name].trace.shared_load_warp_count()
                     for name in ("htw", "bpr"))
        assert shared > 0

    def test_linear_apps_avoid_shared_memory_mostly(self, runs):
        # matching Figure 9: 2mm/lu do not touch shared memory
        assert runs["2mm"].trace.shared_load_warp_count() == 0
        assert runs["lu"].trace.shared_load_warp_count() == 0

    def test_mriq_tiny_global_load_fraction(self, runs):
        trace = runs["mriq"].trace
        fraction = (trace.global_load_warp_count()
                    / trace.total_warp_instructions())
        # Table I reports 0.03%; ours is small too (< 2%)
        assert fraction < 0.02

    def test_scale_changes_problem_size(self):
        small = get_workload("2mm", scale=0.25)
        large = get_workload("2mm", scale=1.0)
        assert large.n > small.n
