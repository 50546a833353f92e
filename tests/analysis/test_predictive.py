"""Predictive happens-before detector: recall, streaming, telemetry.

Recall is pc-exact against the per-mode expectations of every corpus
case; the columnar contract is enforced directly (the detector reads
the launch columns, never the materialized record view, and checks the
memory budget once per warp); the ``races.predictive`` counters are
checked through an isolated registry.
"""

import pytest

from repro.analysis import RaceKind, analyze_trace, analyze_workload
from repro.emulator import ApplicationTrace, Emulator, MemoryImage
from repro.emulator.columnar import ColumnarWarpTrace
from repro.obs.metrics import isolated_registry
from repro.testing.races import ALL_CASES, get_planted

pytestmark = pytest.mark.races


def emulate(case, engine=None):
    """Emulate one corpus case; returns the application trace."""
    module, kernel = case.build()
    mem = MemoryImage()
    params = {name: mem.alloc(name, size)
              for name, size in case.buffers.items()}
    emu = Emulator(mem, engine=engine)
    app = ApplicationTrace(name=case.name)
    app.add(emu.launch(kernel, case.grid, case.block, params))
    return app


class TestPredictiveRecall:
    @pytest.mark.parametrize("case", ALL_CASES,
                             ids=[c.name for c in ALL_CASES])
    def test_findings_match_expected_pc_exact(self, case):
        _module, kernel = case.build()
        report = case.run(mode="predictive")
        got = {(f.kind, f.pc) for f in report.findings}
        assert got == case.expected_findings(kernel, "predictive"), (
            "predictive output for %r diverges from the planted bug set"
            % case.name)

    @pytest.mark.parametrize("name", [
        "clean_membar_handoff", "race_unfenced_handoff",
        "race_atomic_plain_mix", "clean_red_reduction",
        "benign_fenced_shared_handoff"])
    def test_engines_agree_on_findings(self, name):
        case = get_planted(name)
        scalar = case.run(engine="scalar", mode="predictive")
        vectorized = case.run(engine="vectorized", mode="predictive")
        assert scalar.to_json() == vectorized.to_json()

    def test_predictive_only_case_is_invisible_to_interval(self):
        case = get_planted("race_unfenced_handoff")
        assert case.run(mode="interval").clean
        report = case.run(mode="predictive")
        (finding,) = report.by_kind(RaceKind.PREDICTED_GLOBAL_RACE)
        assert "serialized" in finding.detail

    def test_atomic_plain_mix_attribution(self):
        report = get_planted("race_atomic_plain_mix").run(
            mode="predictive")
        (finding,) = report.by_kind(RaceKind.ATOMIC_PLAIN_RACE)
        # primary pc is the plain access, other_pc the atomic
        assert finding.pc != finding.other_pc
        assert "atomics only order against other atomics" in finding.detail
        assert len(finding.lanes) == 2

    def test_unknown_mode_rejected(self):
        case = get_planted("clean_reduction")
        app = emulate(case)
        with pytest.raises(ValueError, match="unknown race-detector"):
            analyze_trace(app, mode="optimistic")


class TestStreaming:
    def test_never_materializes_the_record_view(self, monkeypatch):
        """The predictive detector must stay columnar: touching the
        legacy ``.ops`` record view would defeat the bounded-memory
        contract."""
        case = get_planted("race_atomic_plain_mix")
        app = emulate(case)

        def boom(self):
            raise AssertionError(
                "predictive detector materialized warp records")

        monkeypatch.setattr(ColumnarWarpTrace, "ops", property(boom))
        report = analyze_trace(app, app=case.name, mode="predictive")
        assert report.by_kind(RaceKind.ATOMIC_PLAIN_RACE)

    def test_memory_budget_guard_runs_per_warp(self, monkeypatch):
        import repro.analysis.predictive as predictive

        calls = []
        monkeypatch.setattr(predictive, "check_memory_budget",
                            lambda context=None: calls.append(context))
        case = get_planted("race_ww_shared")
        app = emulate(case)
        analyze_trace(app, app=case.name, mode="predictive")
        assert calls == ["predictive race analysis"] * sum(
            len(launch.warps) for launch in app)


class TestObservability:
    def test_publishes_predictive_counters(self):
        with isolated_registry() as reg:
            get_planted("clean_membar_handoff").run(mode="predictive")
            counters = reg.snapshot()["counters"]
        assert counters["races.predictive.launches"]
        assert counters["races.predictive.ops_checked"]
        # the fenced handoff builds release/acquire edges and uses them
        # to order away the producer/consumer pair
        assert any(v > 0
                   for v in counters["races.predictive.sync_edges"].values())
        assert any(v > 0
                   for v in counters["races.predictive.suppressed"].values())
        assert "races.predictive.findings" not in counters

    def test_findings_counter_labelled_by_kind(self):
        with isolated_registry() as reg:
            get_planted("race_unfenced_handoff").run(mode="predictive")
            counters = reg.snapshot()["counters"]
        findings = counters["races.predictive.findings"]
        assert any(RaceKind.PREDICTED_GLOBAL_RACE in key
                   for key in findings)


class TestStockWorkloads:
    """The predictive mode on real workloads: clean where the code is
    clean, and surfacing the graph kernels' benign schedule-dependent
    sharing (plain reads racing atomic relaxations) the interval
    baseline is blind to."""

    @pytest.mark.parametrize("name", ["2mm", "hotspot", "bfs", "histo"])
    def test_synchronized_workloads_stay_clean(self, name):
        report = analyze_workload(name, scale=0.1, mode="predictive")
        assert report.clean, report.format()

    def test_sssp_relaxation_sharing_is_surfaced(self):
        report = analyze_workload("sssp", scale=0.1, mode="predictive")
        assert not report.clean
        kinds = {f.kind for f in report.findings}
        assert kinds <= {RaceKind.ATOMIC_PLAIN_RACE,
                         RaceKind.PREDICTED_GLOBAL_RACE}
        # the same trace is clean under the interval baseline: this
        # sharing is exactly what predictive mode exists to reveal
        assert analyze_workload("sssp", scale=0.1,
                                mode="interval").clean
