"""Unit tests for the per-line heat map of the trace-profile pass."""

import pytest

from repro.emulator.grid import make_launch
from repro.emulator.trace import TraceOp
from repro.profiling.heatmap import HeatMapReport, reuse_bucket
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
    """accesses: [(cta_id, pc, [addr, ...])] — one warp-load each."""
    return build_launch(
        [(cta, 0, [TraceOp(load_inst(pc=pc), (1 << max(1, len(addrs))) - 1,
                           tuple((lane, a) for lane, a in enumerate(addrs)))])
         for cta, pc, addrs in accesses],
        config=make_launch(8, 32))


def heatmap(launch, line_bytes=128):
    profiler = TraceProfiler(line_bytes)
    profiler.analyze_launch(launch)
    return profiler.report().heatmap


def analyze(accesses):
    return heatmap(launch_from_accesses(accesses))


class TestReuseBucket:
    def test_buckets_are_log2(self):
        assert reuse_bucket(1) == 1
        assert reuse_bucket(2) == 2
        assert reuse_bucket(3) == 2
        assert reuse_bucket(4) == 3
        assert reuse_bucket(1023) == 10
        assert reuse_bucket(1024) == 11


class TestLineAggregation:
    def test_counts_distinct_lines_per_op(self):
        # 3 lanes in one 128 B line = one coalesced access
        report = analyze([(0, 8, [0, 4, 8])])
        assert report.total_touches == 1
        assert report.num_lines == 1
        heat = report.pcs[("k", 8)]
        assert heat.line_touches == 1
        assert heat.lane_accesses == 3
        assert heat.max_lines_per_op == 1

    def test_scattered_op_touches_many_lines(self):
        report = analyze([(0, 8, [0, 128, 256, 384])])
        heat = report.pcs[("k", 8)]
        assert heat.line_touches == 4
        assert heat.max_lines_per_op == 4
        assert heat.requests_per_warp() == 4.0

    def test_cold_misses_are_first_touches(self):
        report = analyze([(0, 8, [0]), (0, 8, [0]), (0, 8, [128])])
        heat = report.pcs[("k", 8)]
        assert heat.cold_misses == 2
        assert heat.cold_miss_ratio() == pytest.approx(2 / 3)

    def test_cta_sharing_attributed_to_pcs(self):
        report = analyze([(0, 8, [0]), (1, 8, [0]), (0, 24, [128])])
        assert report.shared_lines == 1
        shared = report.pcs[("k", 8)]
        private = report.pcs[("k", 24)]
        assert shared.shared_fraction() == 1.0
        assert private.shared_fraction() == 0.0

    def test_reuse_interval_histogram(self):
        # line 0 touched at global ticks 0 and 2: interval 2 -> bucket 2
        report = analyze([(0, 8, [0]), (0, 8, [128]), (0, 8, [0])])
        assert report.reuse_hist == {2: 1}
        assert report.pcs[("k", 8)].reuse_hist == {2: 1}

    def test_non_global_and_store_ops_ignored(self):
        launch = build_launch([(0, 0, [
            TraceOp(load_inst(pc=24, space=Space.SHARED), 1, ((0, 0),)),
            TraceOp(store_inst(), 1, ((0, 0),), (0,)),
            TraceOp(load_inst(), 1, None),  # recorded no addresses
        ])], config=make_launch(8, 32))
        report = heatmap(launch)
        assert report.total_touches == 0
        # the load that recorded no addresses is no memory op at all
        assert list(report.pcs) == []

    def test_custom_line_bytes(self):
        report = heatmap(launch_from_accesses([(0, 8, [0, 64])]),
                         line_bytes=32)
        assert report.line_bytes == 32
        assert report.num_lines == 2

    def test_hottest_ranking(self):
        report = analyze([(0, 8, [0]), (0, 8, [0]), (1, 24, [128])])
        (line0, acc0, ctas0, top0), (line1, acc1, _c, _t) = \
            report.hottest(2)
        assert (line0, acc0, ctas0, top0) == (0, 2, 1, ("k", 8))
        assert (line1, acc1) == (1, 1)


class TestColumnarParity:
    def test_columnar_matches_record_path(self, bfs_run):
        launch = bfs_run.trace.launches[0]
        col = TraceProfiler()
        col._analyze_record_warp = None  # fail loudly if it were used
        col.analyze_launch(launch)
        col_report = col.report().heatmap

        record = TraceProfiler()
        for warp in launch.warps:
            record._analyze_record_warp(launch.kernel_name, warp, {})
        rec_report = record.report().heatmap

        assert col_report.total_touches == rec_report.total_touches
        assert col_report.reuse_hist == rec_report.reuse_hist
        assert set(col_report.pcs) == set(rec_report.pcs)
        for key, heat in col_report.pcs.items():
            other = rec_report.pcs[key]
            assert heat.line_touches == other.line_touches
            assert heat.lane_accesses == other.lane_accesses
            assert heat.cold_misses == other.cold_misses
            assert heat.max_lines_per_op == other.max_lines_per_op
        assert ({k: v.accesses for k, v in col_report.lines.items()}
                == {k: v.accesses for k, v in rec_report.lines.items()})


class TestRunIntegration:
    def test_bfs_annotated_report(self, bfs_run):
        report = profile_trace(bfs_run.trace,
                               bfs_run.classifications).heatmap
        assert report.total_touches > 0
        classes = {h.load_class for h in report.pcs.values()}
        assert "N" in classes and "D" in classes
        # classifier annotations carry PTX source lines
        assert any(h.line > 0 for h in report.pcs.values())
        payload = report.to_json()
        assert payload["num_lines"] == report.num_lines
        assert payload["pcs"]
        assert "heat map" in report.render()

    def test_render_on_empty_report(self):
        assert "no global-memory accesses" in HeatMapReport().render()
        assert profile_trace([]).heatmap.to_json()["num_lines"] == 0
