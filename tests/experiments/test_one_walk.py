"""One coalescing pass per launch per job.

Each launch keeps its coalesced table
(:func:`~repro.sim.coalescer.coalesced`).  A simulated job builds it
for the timing model's memory plan as each launch replays; the runner's
``profile`` stage then folds the launches in batches, each launch in
one batch, reading the tables the plans built, and the metrics bridge
and the advisor read the profile from the result.  A replay of the same
launches under another machine configuration coalesces nothing; only a
rewritten launch gets a table of its own.
"""

import pytest

from repro.profiling.trace_profile import TraceProfiler
from repro.sim import coalescer
from repro.sim.config import TINY
from repro.sim.gpu import GPU


@pytest.fixture
def walks(monkeypatch):
    """Counts of coalescing passes, of replayed launches (and of those
    replayed under a trace rewrite), and of profile folds and the
    launches they fold."""
    counts = {"coalesce": 0, "run_launch": 0, "rewritten": 0,
              "fold": 0, "folded": 0}
    coalesce = coalescer._coalesce

    def counting_coalesce(launches, line_size):
        counts["coalesce"] += 1
        return coalesce(launches, line_size)

    monkeypatch.setattr(coalescer, "_coalesce", counting_coalesce)
    run_launch = GPU.run_launch

    def counting_run_launch(self, *args, **kwargs):
        counts["run_launch"] += 1
        return run_launch(self, *args, **kwargs)

    monkeypatch.setattr(GPU, "run_launch", counting_run_launch)
    run_application = GPU.run_application

    def counting_run_application(self, app_trace, classifications,
                                 rewrite=None):
        if rewrite is not None:
            counts["rewritten"] += len(app_trace)
        return run_application(self, app_trace, classifications, rewrite)

    monkeypatch.setattr(GPU, "run_application", counting_run_application)
    fold = TraceProfiler.fold

    def counting_fold(self, launches, classifications=None):
        counts["fold"] += 1
        counts["folded"] += len(launches)
        return fold(self, launches, classifications)

    monkeypatch.setattr(TraceProfiler, "fold", counting_fold)
    return counts


class TestOneWalkPerJob:
    def test_runner_result_walks_each_launch_once(self, walks):
        from repro.experiments.runner import ExperimentRunner

        result = ExperimentRunner(scale=0.05, config=TINY).result("bfs")
        launches = len(result.run.trace)
        assert launches > 1
        # one coalescing pass per simulated launch, for its memory
        # plan; the profile folds batches of launches, each launch in
        # one batch, and reads the plans' tables
        folds = walks["fold"]
        assert 1 <= folds < launches
        assert walks == {"coalesce": launches, "run_launch": launches,
                         "rewritten": 0, "fold": folds,
                         "folded": launches}

    def test_advise_reads_the_result(self, walks):
        from repro.advise import CTA_CLUSTERED, SEMI_GLOBAL_L2, advise_app
        from repro.advise.rules import Thresholds
        from repro.experiments.runner import ExperimentRunner

        runner = ExperimentRunner(scale=0.05, config=TINY)
        result = runner.result("bfs")
        walks.update(dict.fromkeys(walks, 0))
        # every load diagnosed as thrashing: the machine transforms
        # replay the job's own launches
        report = advise_app("bfs", runner=runner, thresholds=Thresholds(
            thrashing_traffic_share=0.0, thrashing_far_reuse=0.0,
            sharing_fraction=0.0))
        verified = {d.transform for d in report.deltas if not d.skipped}
        assert {CTA_CLUSTERED, SEMI_GLOBAL_L2} <= verified
        # only a rewritten launch is coalesced; the replays of the
        # job's own launches under other machine configurations read
        # their tables, and nothing profiles
        replays, rewritten = walks["run_launch"], walks["rewritten"]
        assert 0 < rewritten < replays
        assert walks == {"coalesce": rewritten, "run_launch": replays,
                         "rewritten": rewritten, "fold": 0, "folded": 0}
        assert report.heatmap is result.heatmap
