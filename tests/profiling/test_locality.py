"""Unit tests for the locality report of the trace-profile pass
(Figures 10-12 machinery)."""

import pytest

from repro.emulator.grid import make_launch
from repro.emulator.trace import TraceOp
from repro.profiling.trace_profile import TraceProfiler, profile_trace
from repro.ptx.isa import DType, Instruction, MemRef, Reg, Space

from tests.traces import build_launch


def load_inst(pc=8, space=Space.GLOBAL):
    inst = Instruction(opcode="ld", dtype=DType.U32, space=space,
                       dests=(Reg("%r1"),),
                       srcs=(MemRef(Reg("%rd1")),))
    inst.pc = pc
    return inst


def store_inst(pc=16):
    inst = Instruction(opcode="st", dtype=DType.U32, space=Space.GLOBAL,
                       srcs=(MemRef(Reg("%rd1")), Reg("%r1")))
    inst.pc = pc
    return inst


def launch_from_accesses(accesses):
    """accesses: [(cta_id, [addr, ...])] — one warp-load per entry."""
    return build_launch(
        [(cta, 0, [TraceOp(load_inst(), 1,
                           tuple((lane, a) for lane, a in enumerate(addrs)))])
         for cta, addrs in accesses],
        config=make_launch(8, 32))


def locality(launch, pc_classes=None):
    profiler = TraceProfiler()
    profiler.fold([launch], {launch.kernel_name: pc_classes})
    return profiler.report().locality


def analyze(accesses):
    return locality(launch_from_accesses(accesses))


class TestColdMiss:
    def test_every_first_touch_is_cold(self):
        report = analyze([(0, [0]), (0, [128]), (0, [256])])
        assert report.cold_misses == 3
        assert report.cold_miss_ratio == 1.0

    def test_reuse_lowers_ratio(self):
        report = analyze([(0, [0]), (0, [0]), (0, [0]), (0, [0])])
        assert report.cold_misses == 1
        assert report.cold_miss_ratio == 0.25
        assert report.mean_accesses_per_block == 4.0

    def test_same_block_same_warp_counts_once(self):
        # two lanes in one 128 B block = one coalesced access
        report = analyze([(0, [0, 4, 8])])
        assert report.total_accesses == 1


class TestSharing:
    def test_private_blocks_not_shared(self):
        report = analyze([(0, [0]), (1, [128])])
        assert report.shared_blocks == 0
        assert report.shared_block_ratio == 0.0

    def test_shared_block_detected(self):
        report = analyze([(0, [0]), (1, [0]), (0, [128])])
        assert report.shared_blocks == 1
        assert report.num_blocks == 2
        assert report.shared_block_ratio == 0.5
        # 2 of 3 accesses target the shared block
        assert report.shared_access_ratio == pytest.approx(2 / 3)
        assert report.mean_ctas_per_shared_block == 2.0

    def test_many_cta_sharers(self):
        report = analyze([(c, [0]) for c in range(10)])
        assert report.mean_ctas_per_shared_block == 10.0


class TestDistances:
    def test_distance_between_consecutive_touchers(self):
        report = analyze([(0, [0]), (1, [0]), (3, [0])])
        assert report.distance_hist == {1: 1, 2: 1}

    def test_same_cta_retouch_records_nothing(self):
        report = analyze([(0, [0]), (0, [0])])
        assert sum(report.distance_hist.values()) == 0

    def test_fraction_normalization(self):
        report = analyze([(0, [0]), (1, [0]), (2, [0]), (4, [0])])
        fr = report.distance_fractions()
        assert fr[1] == pytest.approx(2 / 3)
        assert fr[2] == pytest.approx(1 / 3)

    def test_max_distance_filter(self):
        report = analyze([(0, [0]), (50, [0])])
        assert report.distance_fractions(max_distance=10) == {}

    def test_per_class_histogram(self):
        launch = launch_from_accesses([(0, [0]), (1, [0])])
        report = locality(launch, pc_classes={8: "N"})
        assert report.distance_hist_by_class["N"][1] == 1
        assert sum(report.distance_hist_by_class["D"].values()) == 0


def mixed_class_report():
    """Block 0: N load shared by CTAs 0->1->2 (distances 1, 1);
    block 128: D load shared by CTAs 0->2 (distance 2)."""
    launch = build_launch(
        [(cta, 0, [TraceOp(load_inst(pc=pc), 1, ((0, addr),))])
         for cta, pc, addr in [(0, 8, 0), (1, 8, 0), (2, 8, 0),
                               (0, 24, 128), (2, 24, 128)]],
        config=make_launch(8, 32))
    return locality(launch, pc_classes={8: "N", 24: "D"})


class TestDistanceFractionNormalization:
    def test_combined_fractions_sum_to_class_share(self):
        # regression: per-class curves must be fractions of *all* shared
        # accesses (Figure 12 convention), summing to the class's share
        report = mixed_class_report()
        n = report.distance_fractions(load_class="N")
        d = report.distance_fractions(load_class="D")
        assert sum(n.values()) == pytest.approx(2 / 3)
        assert sum(d.values()) == pytest.approx(1 / 3)
        assert sum(n.values()) + sum(d.values()) == pytest.approx(1.0)

    def test_class_normalization_sums_to_one(self):
        report = mixed_class_report()
        n = report.distance_fractions(load_class="N", normalize="class")
        d = report.distance_fractions(load_class="D", normalize="class")
        assert n == {1: pytest.approx(1.0)}
        assert d == {2: pytest.approx(1.0)}

    def test_class_normalization_survives_empty_combined(self):
        # regression: a non-empty class histogram must not vanish just
        # because the combined histogram is empty
        from collections import Counter

        from repro.profiling.locality import LocalityReport

        report = LocalityReport()
        report.distance_hist_by_class["N"] = Counter({1: 2})
        assert report.distance_fractions(
            load_class="N", normalize="class") == {1: pytest.approx(1.0)}
        assert report.distance_fractions(load_class="N") == {}

    def test_zero_total_returns_empty(self):
        report = analyze([(0, [0])])  # single CTA: no sharing
        assert report.distance_fractions() == {}
        assert report.distance_fractions(load_class="D",
                                         normalize="class") == {}

    def test_invalid_normalize_rejected(self):
        report = mixed_class_report()
        with pytest.raises(ValueError):
            report.distance_fractions(normalize="total")


class TestFiltering:
    def test_stores_excluded_by_default(self):
        launch = build_launch(
            [(0, 0, [TraceOp(store_inst(), 1, ((0, 0),), (0,))])])
        assert locality(launch).total_accesses == 0

    def test_shared_space_ignored(self):
        launch = build_launch(
            [(0, 0, [TraceOp(load_inst(space=Space.SHARED), 1, ((0, 0),))])])
        assert locality(launch).total_accesses == 0


class TestWorkloadIntegration:
    def test_profile_trace_2mm(self):
        from repro.workloads import get_workload
        # scale 1.0 gives a 3x3 CTA grid, so inter-CTA sharing is visible
        run = get_workload("2mm", scale=1.0).run(verify=False)
        report = profile_trace(run.trace, run.classifications).locality
        # 2mm re-reads every matrix row/column many times
        assert report.cold_miss_ratio < 0.2
        assert report.mean_accesses_per_block > 4
        # B/C matrix blocks are shared by CTAs in the same grid row/column
        assert report.shared_block_ratio > 0.1
        assert report.mean_ctas_per_shared_block >= 2.0
