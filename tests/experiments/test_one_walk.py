"""One walk of each launch per job stage.

The runner's ``profile`` stage builds the locality report, the heat map
and the request histograms from one coalesced table per launch; the
metrics bridge and the advisor read them from the result and walk the
trace no more.  The timing model makes one more
walk of each launch it replays: its memory plan, one coalesced table
over the launch's own columns.
"""

import sys

import pytest

from repro.sim import coalescer
from repro.sim.config import TINY
from repro.sim.gpu import GPU


@pytest.fixture
def walks(monkeypatch):
    """Counts of coalesced-table walks, patched wherever a module holds
    a reference to the original function, and of replayed launches."""
    counts = {"coalesce_table": 0, "run_launch": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(GPU, "run_launch",
                        counting("run_launch", GPU.run_launch))
    original = coalescer.coalesce_table
    wrapped = counting("coalesce_table", original)
    for module in list(sys.modules.values()):
        if getattr(module, "coalesce_table", None) is original:
            monkeypatch.setattr(module, "coalesce_table", wrapped)
    return counts


class TestOneWalkPerJob:
    def test_runner_result_walks_each_launch_once(self, walks):
        from repro.experiments.runner import ExperimentRunner

        result = ExperimentRunner(scale=0.05, config=TINY).result("bfs")
        launches = len(result.run.trace)
        assert launches > 1
        # the profile's walk plus the simulation's memory plan
        assert walks == {"coalesce_table": 2 * launches,
                         "run_launch": launches}

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
                         "run_launch": replays}
        assert report.heatmap is result.heatmap
