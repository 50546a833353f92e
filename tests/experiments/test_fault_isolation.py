"""Tests for fault-isolated experiment running (runner + faults.py)."""

import pytest

from repro.experiments.runner import AppFailure, AppResult, ExperimentRunner
from repro.sim.config import TINY
from repro.testing.faults import (
    FaultSpec,
    InjectedFault,
    check_fault,
    injected,
    parse_faults,
)

pytestmark = pytest.mark.faults

SCALE = 0.1
NAMES = ["2mm", "spmv", "bfs"]


def _runner(**kwargs):
    kwargs.setdefault("scale", SCALE)
    kwargs.setdefault("config", TINY)
    return ExperimentRunner(**kwargs)


class TestFaultSpecs:
    def test_parse(self):
        specs = parse_faults("2mm:emulate,bfs:simulate:sleep=3")
        assert specs == [FaultSpec("2mm", "emulate"),
                         FaultSpec("bfs", "simulate", "sleep=3")]

    def test_parse_rejects_bad_stage(self):
        with pytest.raises(ValueError):
            parse_faults("2mm:fly")

    def test_parse_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            parse_faults("2mm:emulate:explode")

    def test_check_fault_noop_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_INJECT_FAULTS", raising=False)
        check_fault("2mm", "emulate")  # must not raise

    def test_injected_context_manager_restores_env(self, monkeypatch):
        import os
        monkeypatch.delenv("REPRO_INJECT_FAULTS", raising=False)
        with injected("2mm", "emulate"):
            with pytest.raises(InjectedFault):
                check_fault("2mm", "emulate")
            check_fault("bfs", "emulate")  # other apps unaffected
        assert "REPRO_INJECT_FAULTS" not in os.environ


class TestSerialIsolation:
    def test_nonstrict_degrades_to_failure(self):
        runner = _runner(strict=False)
        with injected("2mm", "emulate"):
            results = runner.results(NAMES)
        assert [r.name for r in results] == NAMES
        assert isinstance(results[0], AppFailure)
        assert not results[0].ok
        assert results[0].stage == "emulate"
        assert results[0].error == "InjectedFault"
        assert all(isinstance(r, AppResult) and r.ok for r in results[1:])

    def test_failure_is_cached(self):
        runner = _runner(strict=False)
        with injected("spmv", "simulate"):
            first = runner.result("spmv")
        assert first.stage == "simulate"
        # no fault armed anymore, but the failure is memoized
        again = runner.result("spmv")
        assert again is first

    def test_strict_reraises(self):
        runner = _runner(strict=True)
        with injected("2mm", "emulate"):
            with pytest.raises(InjectedFault):
                runner.results(NAMES)

    def test_analyze_stage_attribution(self):
        runner = _runner(strict=False, simulate=False)
        with injected("bfs", "analyze"):
            failure = runner.result("bfs")
        assert failure.stage == "analyze"

    def test_failures_listing_and_clear(self):
        runner = _runner(strict=False)
        with injected("2mm", "emulate"):
            runner.result("2mm")
        assert [f.name for f in runner.failures()] == ["2mm"]
        runner.clear()
        assert runner.failures() == []

    def test_memory_fault_context_flows_into_failure(self, monkeypatch):
        from repro.emulator import MemoryFaultError
        from repro.workloads.base import Workload

        def boom(self, verify=True, max_warp_insts=None, engine=None,
                 module=None):
            raise MemoryFaultError("invalid global access",
                                   kernel="mm2_k1", pc=0x20, cta=1,
                                   warp=2, lane=3, address=0xdead0,
                                   space="global")

        monkeypatch.setattr(Workload, "run", boom)
        failure = _runner(strict=False).result("2mm")
        assert failure.error == "MemoryFaultError"
        assert failure.context["kernel"] == "mm2_k1"
        assert failure.context["pc"] == 0x20
        assert failure.context["lane"] == 3
        manifest = failure.to_json()
        assert manifest["context"]["address"] == 0xdead0


class TestParallelIsolation:
    def test_sibling_results_survive_worker_failure(self):
        runner = _runner(strict=False, jobs=2)
        with injected("2mm", "emulate"):
            results = runner.results(NAMES)
        assert isinstance(results[0], AppFailure)
        assert all(r.ok for r in results[1:])

    def test_sibling_results_survive_worker_crash(self):
        """The exit kind kills the worker process outright, breaking the
        pool; surviving names fall back to serial."""
        runner = _runner(strict=False, jobs=2)
        with injected("2mm", "emulate", kind="exit"):
            results = runner.results(NAMES)
        assert [r.name for r in results] == NAMES
        failed = [r for r in results if not r.ok]
        assert [f.name for f in failed] == ["2mm"]

    def test_pool_broken_at_submit_falls_back_to_serial(
            self, pool_broken_at_second_submit):
        runner = _runner(strict=False, jobs=2)
        results = runner.results(NAMES)
        assert [r.name for r in results] == NAMES
        assert all(isinstance(r, AppResult) and r.ok for r in results)

    def test_parallel_strict_reraises(self):
        runner = _runner(strict=True, jobs=2)
        with injected("2mm", "emulate"):
            with pytest.raises(InjectedFault):
                runner.results(NAMES)

    def test_timeout_isolates_slow_job(self):
        # generous sibling budget: worker spawn + a real 0.1-scale app
        runner = _runner(strict=False, jobs=2, timeout=8.0)
        with injected("2mm", "emulate", kind="sleep=15"):
            results = runner.results(NAMES)
        failure = results[0]
        assert isinstance(failure, AppFailure)
        assert failure.error == "TimeoutError"
        assert "timeout" in failure.message
        assert all(r.ok for r in results[1:])

    def test_timeout_in_simulate_is_not_blamed_on_emulate(self):
        """The parent cannot see which stage a worker hung in, so a
        timed-out job's stage is "unknown", never a guess."""
        runner = _runner(strict=False, jobs=2, timeout=8.0)
        with injected("2mm", "simulate", kind="sleep=15"):
            results = runner.results(["2mm", "spmv"])
        failure = results[0]
        assert failure.error == "TimeoutError"
        assert failure.stage != "emulate"
        assert failure.stage == "unknown"
        assert results[1].ok

    def test_healthy_job_behind_two_hung_ones_still_runs(self):
        """Both workers hang; the third app never starts in the pool, so
        it is not a timeout but reruns serially in the parent."""
        runner = _runner(strict=False, jobs=2, timeout=4.0)
        with injected("2mm", "emulate", kind="sleep=60"), \
                injected("spmv", "emulate", kind="sleep=60"):
            results = runner.results(NAMES)
        assert [r.error for r in results[:2]] == ["TimeoutError"] * 2
        assert isinstance(results[2], AppResult) and results[2].ok

    def test_timed_out_worker_does_not_outlive_results(self):
        import multiprocessing
        import time

        before = set(multiprocessing.active_children())
        runner = _runner(strict=False, jobs=2, timeout=8.0)
        with injected("2mm", "emulate", kind="sleep=60"):
            results = runner.results(["2mm", "spmv"])
        assert results[0].error == "TimeoutError"
        assert results[1].ok
        deadline = time.monotonic() + 5
        leftover = set(multiprocessing.active_children()) - before
        while leftover and time.monotonic() < deadline:
            time.sleep(0.1)
            leftover = set(multiprocessing.active_children()) - before
        assert not leftover
