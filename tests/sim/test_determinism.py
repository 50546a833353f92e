"""Determinism regression: the whole pipeline is reproducible.

Same seed + same configuration must produce byte-identical statistics —
a property the wake-time main loop, heap orderings and dict iteration
could silently break.
"""

import pytest

from repro.sim import GPU, TINY
from repro.workloads import get_workload


def simulate(name, scale=0.25, seed=7, config=TINY):
    run = get_workload(name, scale=scale, seed=seed).run(verify=False)
    gpu = GPU(config)
    for launch in run.trace:
        gpu.run_launch(launch, run.classifications[launch.kernel_name])
    return run, gpu.stats


def fingerprint(stats):
    return (
        stats.cycles,
        stats.issued_warp_insts,
        tuple(sorted((o.value, c) for o, c in stats.l1_cycles.items())),
        tuple(sorted((label, cls.l1_hit, cls.l1_miss, cls.requests,
                      cls.turnaround_sum)
                     for label, cls in stats.classes.items())),
        stats.dram_reads,
        stats.dram_writes,
    )


class TestDeterminism:
    @pytest.mark.parametrize("name", ("bfs", "spmv", "bpr"))
    def test_pipeline_reproducible(self, name):
        _run1, stats1 = simulate(name)
        _run2, stats2 = simulate(name)
        assert fingerprint(stats1) == fingerprint(stats2)

    def test_traces_identical_across_runs(self):
        run1, _ = simulate("bfs")
        run2, _ = simulate("bfs")
        ops1 = [(op.pc, op.active_mask, op.addresses)
                for launch in run1.trace for w in launch for op in w.ops]
        ops2 = [(op.pc, op.active_mask, op.addresses)
                for launch in run2.trace for w in launch for op in w.ops]
        assert ops1 == ops2

    def test_seed_changes_input(self):
        run1, _ = simulate("spmv", seed=7)
        run2, _ = simulate("spmv", seed=8)
        assert (run1.trace.total_warp_instructions()
                != run2.trace.total_warp_instructions())
