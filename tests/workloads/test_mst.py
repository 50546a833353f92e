"""mst's component collapse is bounded on inputs where it cannot
converge: seed 2009 at scale 0.25 forms a ``succ`` cycle longer than two
in its third Boruvka round, which the 2-cycle break rule never resolves.
"""

import time

import numpy as np
import pytest

from repro.workloads import ConvergenceError, get_workload
from repro.workloads.graph_common import default_graph
from repro.workloads.mst import reference_boruvka_round

SCALE, SEED = 0.25, 2009

#: wall-clock bound on the failing run (it takes about 4 s on a 2-core
#: x86 host; unbounded, it never returned)
RUN_SECONDS = 60


def test_device_collapse_raises_within_bound():
    start = time.perf_counter()
    with pytest.raises(ConvergenceError) as info:
        get_workload("mst", scale=SCALE, seed=SEED).run()
    assert time.perf_counter() - start < RUN_SECONDS
    exc = info.value
    # 256 nodes: one pointer-jump launch per step, num_nodes + 1 steps
    assert (exc.app, exc.round, exc.steps) == ("mst", 3, 257)
    assert "round 3 did not converge in 257 steps" in str(exc)


def test_reference_collapse_raises_in_the_same_round():
    graph = default_graph(get_workload("mst", scale=SCALE, seed=SEED),
                          base_nodes=1024)
    comp = np.arange(graph.num_nodes, dtype=np.int64)
    with pytest.raises(ConvergenceError) as info:
        for round_no in (1, 2, 3):
            comp, _changed = reference_boruvka_round(
                graph.row_ptr, graph.col_idx, graph.weights, comp, round_no)
    assert (info.value.round, info.value.steps) == (3, graph.num_nodes + 1)


def test_runner_records_the_failure():
    from repro.experiments.runner import ExperimentRunner
    from repro.obs.metrics import isolated_registry

    with isolated_registry():
        failure = ExperimentRunner(scale=SCALE, seed=SEED, simulate=False,
                                   strict=False).result("mst")
    assert not failure.ok
    assert (failure.stage, failure.error) == ("emulate", "ConvergenceError")
    assert failure.context == {"round": 3, "steps": 257}
