"""Golden-output tests for the closed-loop advisor.

Two anchors from the paper's benchmark suite: ``2mm`` (dense, fully
coalesced — the advisor must stay quiet) and ``bfs`` (irregular graph
traversal — the advisor must localize the non-deterministic loads to
their PTX lines and recommend a measured-profitable transform).
"""

import json

import pytest

from repro.advise import COALESCE_ORACLE, WARP_SPLIT, advise_app
from repro.experiments.runner import ExperimentRunner
from repro.optim.coalesce_oracle import (
    coalesced_launch,
    compare_perfect_coalescing,
)
from repro.optim.warp_split import compare_warp_splitting
from repro.sim.config import TINY
from repro.sim.gpu import GPU
from repro.sweep.compare import compare


class TestCoalescedApp:
    def test_2mm_yields_no_diagnoses(self, twomm_advice):
        assert twomm_advice.diagnoses == []
        assert twomm_advice.recommendation is None
        assert twomm_advice.verdict == "no memory-critical loads diagnosed"
        assert twomm_advice.deltas == []

    def test_2mm_features_are_well_coalesced(self, twomm_advice):
        assert twomm_advice.features
        for f in twomm_advice.features:
            assert f.load_class == "D"
            assert f.requests_per_warp <= 2.5

    def test_report_serializes(self, twomm_advice):
        payload = json.loads(json.dumps(twomm_advice.to_json()))
        assert payload["app"] == "2mm"
        assert payload["diagnoses"] == []


class TestIrregularApp:
    def test_bfs_localizes_nondeterministic_loads(self, bfs_advice):
        n_diagnoses = [d for d in bfs_advice.diagnoses
                       if d.load_class == "N"]
        assert n_diagnoses, "bfs must diagnose its N loads"
        # the acceptance criterion: at least one N load localized to a
        # PTX source line
        assert any(d.line > 0 for d in n_diagnoses)
        assert all(d.kernel.startswith("bfs_kernel")
                   for d in n_diagnoses)
        kinds = {d.kind for d in bfs_advice.diagnoses}
        assert "uncoalesced" in kinds
        assert "burst-prone" in kinds

    def test_bfs_recommends_verified_transform(self, bfs_advice):
        assert bfs_advice.verified
        assert bfs_advice.recommendation in (COALESCE_ORACLE, WARP_SPLIT)
        best = bfs_advice.delta(bfs_advice.recommendation)
        assert best.cycle_gain >= 0.005
        assert bfs_advice.verdict.startswith("apply ")
        # every candidate named by a diagnosis was actually verified
        candidates = {c for d in bfs_advice.diagnoses for c in d.candidates}
        assert candidates == {d.transform for d in bfs_advice.deltas}

    @pytest.mark.parametrize("transform", [COALESCE_ORACLE, WARP_SPLIT])
    def test_deltas_match_fresh_ablation(self, bfs_advice, test_runner,
                                         transform):
        """The advisor's verified numbers must reproduce an independent
        ablation run (the sims are deterministic: tolerance 0)."""
        delta = bfs_advice.delta(transform)
        assert delta is not None and not delta.skipped
        run = test_runner.result("bfs").run
        if transform == COALESCE_ORACLE:
            outcome = compare_perfect_coalescing(run, test_runner.config)
            fresh = outcome["coalesced"]
        else:
            outcome = compare_warp_splitting(run, test_runner.config,
                                             max_requests=4)
            fresh = outcome["split"]
        result = compare(
            {"cycles": fresh.cycles,
             "baseline_cycles": outcome["baseline"].cycles},
            {"cycles": delta.transformed["cycles"],
             "baseline_cycles": delta.baseline["cycles"]},
            default_tolerance=0.0)
        assert result.ok, result.format(verbose=True)

    def test_text_report_mentions_the_evidence(self, bfs_advice):
        text = bfs_advice.format()
        assert "heat map" in text
        assert "verdict:" in text
        assert "PTX line" in text


class TestDiagnosisOnlyMode:
    def test_no_verify_skips_simulation(self, test_runner):
        report = advise_app("bfs", runner=test_runner, verify=False)
        assert not report.verified
        assert report.diagnoses
        assert report.deltas == []
        assert report.recommendation is None
        assert "verification disabled" in report.verdict


class TestInheritedOrganization:
    def test_transforms_run_on_the_baseline_cta_policy(self):
        """Under a clustered config, both the baseline and every
        transform candidate simulate clustered CTA scheduling."""
        config = TINY.scaled(num_sms=2, cta_policy="clustered")
        runner = ExperimentRunner(scale=0.25, config=config)
        delta = advise_app("bfs", runner=runner).delta(COALESCE_ORACLE)
        assert delta is not None and not delta.skipped
        run = runner.result("bfs").run

        def metrics(stats):
            return {"cycles": stats.cycles,
                    "l2_misses": stats.overall().l2_miss,
                    "dram": stats.dram_reads + stats.dram_writes}

        assert delta.baseline == metrics(GPU(config).run_application(
            run.trace, run.classifications))
        assert delta.transformed == metrics(GPU(config).run_application(
            run.trace, run.classifications, rewrite=coalesced_launch))
