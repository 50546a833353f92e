"""Resource guards: budget parsing, the RSS watchdog, chunk-size
invariance, and the runner's isolation of budget overruns."""

import pytest

from repro.emulator.serialize import save_run
from repro.experiments.runner import ExperimentRunner
from repro.obs.metrics import isolated_registry
from repro.resilience.errors import EngineFailure
from repro.resilience.guards import (
    ENV_MAX_RSS,
    MemoryBudgetError,
    check_memory_budget,
    current_rss_mb,
    memory_budget_mb,
)
from repro.sim.config import TINY
from repro.testing.faults import injected
from repro.workloads import get_workload

SCALE = 0.1


class TestBudgetParsing:
    def test_unset_means_unguarded(self, monkeypatch):
        monkeypatch.delenv(ENV_MAX_RSS, raising=False)
        assert memory_budget_mb() is None

    def test_value_in_mb(self, monkeypatch):
        monkeypatch.setenv(ENV_MAX_RSS, "512")
        assert memory_budget_mb() == 512

    @pytest.mark.parametrize("value", ["0", "-5", ""])
    def test_non_positive_disables_the_guard(self, monkeypatch, value):
        monkeypatch.setenv(ENV_MAX_RSS, value)
        assert memory_budget_mb() is None

    def test_garbage_is_an_error_not_a_silent_noop(self, monkeypatch):
        monkeypatch.setenv(ENV_MAX_RSS, "lots")
        with pytest.raises(ValueError, match=ENV_MAX_RSS):
            memory_budget_mb()


class TestWatchdog:
    def test_rss_probe_works_here(self):
        rss = current_rss_mb()
        assert rss is not None and rss > 0

    def test_unguarded_check_is_a_noop(self, monkeypatch):
        monkeypatch.delenv(ENV_MAX_RSS, raising=False)
        check_memory_budget("anything")

    def test_over_budget_raises_with_context(self, monkeypatch):
        monkeypatch.setenv(ENV_MAX_RSS, "1")
        with pytest.raises(MemoryBudgetError) as err:
            check_memory_budget("unit test")
        assert err.value.budget_mb == 1
        assert err.value.rss_mb > 1
        assert "unit test" in str(err.value)

    def test_not_an_engine_failure(self):
        # retrying on a simpler engine cannot shrink the working set,
        # so the fallback chain must never swallow budget overruns
        assert not issubclass(MemoryBudgetError, EngineFailure)


class TestChunkCap:
    def test_tiny_chunks_produce_identical_traces(self, monkeypatch,
                                                  tmp_path):
        """The chunk size bounds staging memory, never results."""
        baseline = get_workload("2mm", scale=SCALE).run(verify=False)
        monkeypatch.setattr("repro.emulator.columnar.CHUNK_OPS", 7)
        tiny = get_workload("2mm", scale=SCALE).run(verify=False)
        save_run(baseline, tmp_path / "baseline.trace")
        save_run(tiny, tmp_path / "tiny.trace")
        assert (tmp_path / "tiny.trace").read_bytes() == \
            (tmp_path / "baseline.trace").read_bytes()


class TestRunnerIsolation:
    def test_budget_overrun_is_a_structured_failure(self, monkeypatch):
        monkeypatch.setenv(ENV_MAX_RSS, "1")
        with isolated_registry():
            runner = ExperimentRunner(scale=SCALE, config=TINY, strict=False)
            result = runner.result("2mm")
        assert not result.ok
        assert result.error == "MemoryBudgetError"
        assert result.stage == "emulate"
        assert result.context["budget_mb"] == 1
        assert result.context["rss_mb"] > 1

    def test_injected_oom_is_isolated_like_a_real_one(self):
        with isolated_registry():
            runner = ExperimentRunner(scale=SCALE, config=TINY, strict=False)
            with injected("2mm", "simulate", kind="oom"):
                result = runner.result("2mm")
        assert not result.ok
        assert result.error == "MemoryBudgetError"
        assert result.stage == "simulate"

    def test_other_apps_keep_running(self, monkeypatch):
        with isolated_registry():
            runner = ExperimentRunner(scale=SCALE, config=TINY, strict=False)
            with injected("2mm", "analyze", kind="oom"):
                results = runner.results(["2mm", "spmv"])
        by_name = {r.name: r for r in results}
        assert not by_name["2mm"].ok
        assert by_name["spmv"].ok
