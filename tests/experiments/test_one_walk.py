"""One walk of each launch per job stage.

The runner's ``profile`` stage builds the locality report, the heat map
and the request histograms from coalesced tables that each cover a
batch of launches, every launch in one batch; the metrics bridge and
the advisor read them from the result and walk the trace no more.
The timing model makes one more walk of each launch it replays: its
memory plan, one coalesced table over the launch's own columns.  Both
coalesce through :func:`~repro.sim.coalescer.coalesce_accesses`.
"""

import sys

import pytest

from repro.profiling.trace_profile import TraceProfiler
from repro.sim import coalescer
from repro.sim.config import TINY
from repro.sim.gpu import GPU


@pytest.fixture
def walks(monkeypatch):
    """Counts of coalesced-table walks, patched wherever a module holds
    a reference to the original function, of replayed launches, and of
    profile folds and the launches they fold."""
    counts = {"coalesce_table": 0, "coalesce_accesses": 0, "run_launch": 0,
              "fold": 0, "folded": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(GPU, "run_launch",
                        counting("run_launch", GPU.run_launch))
    fold = TraceProfiler.fold

    def counting_fold(self, launches, classifications=None):
        counts["fold"] += 1
        counts["folded"] += len(launches)
        return fold(self, launches, classifications)

    monkeypatch.setattr(TraceProfiler, "fold", counting_fold)
    for name in ("coalesce_table", "coalesce_accesses"):
        original = getattr(coalescer, name)
        wrapped = counting(name, original)
        for module in list(sys.modules.values()):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapped)
    return counts


class TestOneWalkPerJob:
    def test_runner_result_walks_each_launch_once(self, walks):
        from repro.experiments.runner import ExperimentRunner

        result = ExperimentRunner(scale=0.05, config=TINY).result("bfs")
        launches = len(result.run.trace)
        assert launches > 1
        # one memory plan per simulated launch, and one profile walk
        # per batch of launches, each launch in one batch
        folds = walks["fold"]
        assert 1 <= folds < launches
        assert walks == {"coalesce_table": launches,
                         "coalesce_accesses": launches + folds,
                         "run_launch": launches,
                         "fold": folds, "folded": launches}

    def test_advise_reads_the_result(self, walks):
        from repro.advise import advise_app
        from repro.experiments.runner import ExperimentRunner

        runner = ExperimentRunner(scale=0.05, config=TINY)
        result = runner.result("bfs")
        walks.update(dict.fromkeys(walks, 0))
        report = advise_app("bfs", runner=runner)
        assert report.deltas  # the verified path, not diagnosis only
        # each replayed launch plans its memory ops; nothing profiles
        replays = walks["run_launch"]
        assert replays > 0
        assert walks == {"coalesce_table": replays,
                         "coalesce_accesses": replays,
                         "run_launch": replays, "fold": 0, "folded": 0}
        assert report.heatmap is result.heatmap
