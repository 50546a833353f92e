"""Cross-layer consistency: trace-level counts vs. simulator statistics.

The trace and the timing model measure the same execution through
different lenses; these invariants tie them together and catch silent
double-counting or dropped work in either layer.  The drain and
conservation checks run after every launch of the golden matrix: once a
launch ends no component may hold unaccounted cycles or any work but
stores on their way to DRAM, and the cycle tallies must stay within the
bounds their definitions imply.
"""

import pytest

from repro.sim import GPU, TINY
from repro.profiling.trace_profile import profile_trace
from repro.workloads import get_workload
from tests.sim_matrix import SIM_CASES, make_gpu, simulate, workload_run


@pytest.fixture(scope="module", params=("bfs", "spmv", "bpr"))
def app(request):
    run = get_workload(request.param, scale=0.25).run(verify=False)
    gpu = GPU(TINY)
    for launch in run.trace:
        gpu.run_launch(launch, run.classifications[launch.kernel_name])
    return run, gpu.stats


class TestCrossLayerInvariants:
    def test_issued_equals_trace_total(self, app):
        run, stats = app
        assert stats.issued_warp_insts == \
            run.trace.total_warp_instructions()

    def test_global_load_counts_agree(self, app):
        run, stats = app
        assert stats.global_load_insts == \
            run.trace.global_load_warp_count()

    def test_shared_load_counts_agree(self, app):
        run, stats = app
        assert stats.shared_load_insts == \
            run.trace.shared_load_warp_count()

    def test_class_warp_insts_cover_all_loads(self, app):
        run, stats = app
        per_class = sum(cls.warp_insts for cls in stats.classes.values())
        assert per_class == run.trace.global_load_warp_count()

    def test_requests_match_histogram(self, app):
        """The simulator's coalescing counters must equal the trace-level
        request histogram exactly (same coalescer, two call sites)."""
        run, stats = app
        hist = profile_trace(run.trace,
                             run.classifications).coalescing.histogram
        for label in ("D", "N"):
            hist_total = sum(n * c for n, c in hist[label].items())
            # histogram skips all-inactive loads; the sim counts them with
            # zero requests, so request totals match exactly
            assert stats.classes[label].requests == hist_total

    def test_accepted_l1_outcomes_equal_load_requests(self, app):
        """Every load request is eventually accepted exactly once."""
        run, stats = app
        accepted = sum(cls.l1_hit + cls.l1_hit_reserved + cls.l1_miss
                       for cls in stats.classes.values())
        load_requests = sum(cls.requests
                            for cls in stats.classes.values())
        assert accepted == load_requests

    def test_completions_equal_classified_loads(self, app):
        run, stats = app
        hist = profile_trace(run.trace,
                             run.classifications).coalescing.histogram
        for label in ("D", "N"):
            cls = stats.classes[label]
            # every classified load with >=1 request completes exactly once
            assert cls.completed == sum(hist[label].values())

    def test_l1_cycles_at_least_accesses(self, app):
        _run, stats = app
        total_cycles = sum(stats.l1_cycles.values())
        accepted = sum(cls.l1_accesses() for cls in stats.classes.values())
        # retries can only add cycles on top of one per accepted request
        assert total_cycles >= accepted


def assert_drained(gpu):
    """What must hold once a launch has drained.

    Write-through stores complete when the L1 accepts them, so the
    launch may end while its last stores are still on their way to DRAM:
    the request network and the partitions may hold writes, and only
    writes.  Everything a load, an atomic or a prefetch puts in flight
    must be back.
    """
    for sm in gpu.sms:
        assert sm._slept_from is None, "sm %d: unsettled slept cycles" \
            % sm.sm_id
        assert not sm.ldst_queue and not sm._events and not sm.ctas
        assert sm.l1.mshr.occupancy == 0
    for partition in gpu.partitions:
        assert partition.l2.mshr.occupancy == 0
        assert not partition._resp_heap and not partition._resp_ready
        queued = ([req for _t, _s, req in partition._input]
                  + list(partition._dram_queue)
                  + [req for _t, _s, req in partition._dram_heap])
        assert all(req.is_write for req in queued)
    assert gpu.resp_icnt.in_flight == 0
    assert gpu.resp_icnt._credits == \
        [gpu.config.icnt_credits_per_partition] * gpu.config.num_partitions
    # request-network credits are conserved: each SM's credits plus its
    # stores still in flight make up its allotment
    in_flight = [0] * gpu.config.num_sms
    for _t, _s, req, src, _dst in gpu.req_icnt.pending:
        assert req.is_write
        in_flight[src] += 1
    for sm_id, credits in enumerate(gpu.req_icnt._credits):
        assert credits + in_flight[sm_id] == gpu.config.icnt_credits_per_sm


def assert_conserved(gpu):
    """Cycle-accounting conservation laws of the statistics."""
    stats = gpu.stats
    l1_total = sum(stats.l1_cycles.values())
    assert l1_total == sum(sum(by_outcome.values()) for by_outcome
                           in stats.l1_cycles_by_class.values())
    assert stats.unit_busy["ldst"] >= l1_total
    assert sum(stats.issue_stall.values()) <= stats.active_sm_cycles \
        <= gpu.config.num_sms * stats.cycles


@pytest.mark.parametrize("app,variant", SIM_CASES)
def test_drain_and_conservation_after_every_launch(app, variant):
    launches = []

    def check(gpu):
        assert_drained(gpu)
        assert_conserved(gpu)
        launches.append(gpu.now)

    simulate(app, make_gpu(variant), after_launch=check)
    assert len(launches) == len(workload_run(app).trace.launches)
