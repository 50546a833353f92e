"""Tests for simulator failure diagnostics (debug_state / SimulationError)."""

import pytest

from repro.sim.cache import Outcome
from repro.sim.coalescer import MemoryPlan
from repro.sim.config import TINY
from repro.sim.core import IssueTable
from repro.sim.gpu import GPU, SimulationError, _format_state
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def small_run():
    return get_workload("2mm", scale=0.1).run(verify=False)


class TestDebugState:
    def test_snapshot_shape(self, small_run):
        gpu = GPU(TINY)
        state = gpu.debug_state()
        assert len(state["sms"]) == TINY.num_sms
        assert len(state["partitions"]) == TINY.num_partitions
        assert [i["name"] for i in state["interconnects"]] == ["req", "resp"]
        for part in state["partitions"]:
            assert part["l2_mshr"]["occupancy"] == 0
        text = _format_state(state)
        assert "partition 0" in text
        assert "sm 0" in text

    def test_format_is_json_safe(self, small_run):
        import json

        gpu = GPU(TINY)
        for launch in small_run.trace:
            gpu.run_launch(launch)
        json.dumps(gpu.debug_state())  # must not raise


class TestPendingRegisters:
    def test_warp_waiting_on_a_load_lists_its_destination(self, small_run):
        """The scoreboard is a bitmask, but ``debug_state`` (and the
        ``pending=`` field of deadlock reports) names the registers: a
        warp whose global load never returns lists the load's
        destination register."""
        gpu = GPU(TINY)
        launch = small_run.trace.launches[0]
        first = min(w.cta_id for w in launch.warps)
        sm = gpu.sms[0]
        sm.issue_table = IssueTable(launch.instructions)
        sm.memory_plan = MemoryPlan(launch, TINY)
        sm.assign_cta(first, [w for w in launch.warps if w.cta_id == first])
        gpu.req_icnt._credits[0] = 0    # the load can never leave the SM
        with pytest.raises(SimulationError) as info:
            gpu._run_until_drained()
        head = sm.ldst_queue[0]
        assert head.is_load
        dests = launch.instruction_at(head.pc).write_reg_names
        assert dests and all(d.startswith("%") for d in dests)
        warps = info.value.state["sms"][0]["warps"]
        index = [w["warp"] for w in warps].index(head.warp.trace.warp_id)
        assert set(dests) <= set(warps[index]["pending_regs"])
        if index < 8:   # the report prints the first eight warps
            assert "pending=%s" % ",".join(warps[index]["pending_regs"]) \
                in str(info.value)


class TestCycleBudget:
    def test_budget_error_carries_state_dump(self, small_run):
        gpu = GPU(TINY, max_cycles=50)
        with pytest.raises(SimulationError) as info:
            for launch in small_run.trace:
                gpu.run_launch(launch)
        exc = info.value
        assert "cycle budget exceeded" in str(exc)
        assert "simulator state at failure" in str(exc)
        assert exc.state is not None
        assert len(exc.state["sms"]) == TINY.num_sms
        # at 50 cycles into a real launch, something must be resident
        assert any(sm["resident_ctas"] for sm in exc.state["sms"])


class TestDeadlock:
    def test_idle_jump_deadlock_carries_state(self, small_run):
        """Force the no-pending-events branch: give an SM a warp whose
        trace is empty but whose CTA never finishes (outstanding
        refcount pinned), so work is 'pending' with no future event."""
        gpu = GPU(TINY)
        launch = small_run.trace.launches[0]
        by_cta = {}
        for warp in launch.warps:
            by_cta.setdefault(warp.cta_id, []).append(warp)
        first = sorted(by_cta)[0]
        sm = gpu.sms[0]
        sm.issue_table = IssueTable(launch.instructions)
        sm.memory_plan = MemoryPlan(launch, TINY)
        sm.assign_cta(first, by_cta[first])
        sm.ctas[first].outstanding += 1      # never released -> no events
        for w in sm.warps:
            w.ptr = w.n
            w.trace_done = True
        with pytest.raises(SimulationError) as info:
            gpu._run_until_drained()
        assert "deadlock" in str(info.value)
        assert "simulator state at failure" in str(info.value)
        assert info.value.state["sms"][0]["resident_ctas"] == [first]


class TestStuckRetry:
    def test_retry_without_credit_raises_deadlock(self, small_run):
        """SM 0 has no request credits and nothing in flight to return
        one: its global load retries the L1 forever.  That must fail as
        a deadlock at once, not spin until the cycle budget runs out."""
        gpu = GPU(TINY, max_cycles=1_000_000)
        launch = small_run.trace.launches[0]
        by_cta = {}
        for warp in launch.warps:
            by_cta.setdefault(warp.cta_id, []).append(warp)
        first = sorted(by_cta)[0]
        sm = gpu.sms[0]
        sm.issue_table = IssueTable(launch.instructions)
        sm.memory_plan = MemoryPlan(launch, TINY)
        sm.assign_cta(first, by_cta[first])
        gpu.req_icnt._credits[0] = 0
        with pytest.raises(SimulationError) as info:
            gpu._run_until_drained()
        assert "deadlock" in str(info.value)
        assert "simulator state at failure" in str(info.value)
        state = info.value.state
        assert state["cycle"] < 1000
        assert state["interconnects"][0]["credits"][0] == 0
        assert state["sms"][0]["ldst_queue"] >= 1
        head = sm.ldst_queue[0].pending[0]
        assert not head.is_write and not head.is_atomic
        assert gpu.stats.l1_cycles[Outcome.RSRV_FAIL_ICNT] > 0
