"""The closed-loop optimization advisor.

Pipeline (``repro advise <app>``): take the application's heat map from
the runner's trace profile, extract per-load features, run the
rule-based diagnosis, then *verify* every candidate transform by
re-simulating it through the unchanged timing model and measuring the
delta — cycles, L2 misses, DRAM traffic.  :func:`repro.optim.simulate`
runs each candidate as the baseline config with optional overrides
(clustered CTA scheduling, semi-global L2) plus an optional per-launch
trace rewrite (warp splitting, perfect coalescing), so every candidate
inherits the rest of the baseline machine.  The recommendation is the
measured-best transform, or an explicit "no profitable transform"
verdict when nothing clears the gain threshold.  Nothing is asserted
from the rules alone; the simulator has the last word.

Emulation rides the shared :class:`~repro.experiments.runner.
ExperimentRunner` (on-disk trace cache, fault isolation), so advising
an application costs one emulation and trace profile plus one
simulation per candidate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..experiments.runner import BENCH_CONFIG, ExperimentRunner
from ..obs import tracing
from ..obs.metrics import get_registry
from ..optim import configure, simulate
from .features import extract_features
from .rules import Thresholds, diagnose

#: minimum fractional cycle reduction for a transform to be recommended.
MIN_GAIN = 0.005


def _metrics(stats):
    """The advisor's scoreboard for one simulation."""
    return {
        "cycles": stats.cycles,
        "l2_misses": stats.overall().l2_miss,
        "dram": stats.dram_reads + stats.dram_writes,
    }


@dataclass(frozen=True)
class TransformDelta:
    """Measured effect of one candidate transform."""

    transform: str
    baseline: Dict[str, int]
    transformed: Dict[str, int]
    #: present when the transform could not run (e.g. cluster size does
    #: not divide the SM count); metrics are zeroed then.
    skipped: Optional[str] = None

    @property
    def cycle_gain(self):
        """Fractional cycle reduction (negative = slowdown)."""
        base = self.baseline.get("cycles", 0)
        if not base or self.skipped:
            return 0.0
        return (base - self.transformed["cycles"]) / base

    def to_json(self):
        return {
            "transform": self.transform,
            "baseline": dict(self.baseline),
            "transformed": dict(self.transformed),
            "cycle_gain": self.cycle_gain,
            "skipped": self.skipped,
        }


@dataclass
class AdviceReport:
    """Everything ``repro advise`` reports for one application."""

    app: str
    scale: float
    verified: bool
    baseline: Dict[str, int] = field(default_factory=dict)
    features: List[object] = field(default_factory=list)
    diagnoses: List[object] = field(default_factory=list)
    deltas: List[TransformDelta] = field(default_factory=list)
    recommendation: Optional[str] = None
    verdict: str = ""
    heatmap: Optional[object] = None

    def delta(self, transform):
        for d in self.deltas:
            if d.transform == transform:
                return d
        return None

    def to_json(self, top_features=12):
        return {
            "app": self.app,
            "scale": self.scale,
            "verified": self.verified,
            "baseline": dict(self.baseline),
            "features": [f.to_json() for f in self.features[:top_features]],
            "diagnoses": [d.to_json() for d in self.diagnoses],
            "deltas": [d.to_json() for d in self.deltas],
            "recommendation": self.recommendation,
            "verdict": self.verdict,
        }

    def format(self, top=5, heat_width=64):
        lines = ["advice for %s (scale %g)" % (self.app, self.scale), ""]
        if self.heatmap is not None:
            lines.append(self.heatmap.render(width=heat_width))
            lines.append("")
        if not self.diagnoses:
            lines.append("no memory-critical loads diagnosed")
        for i, d in enumerate(self.diagnoses[:top], 1):
            lines.append("%d. [%s, class %s] %s" % (i, d.kind,
                                                    d.load_class, d.where()))
            lines.append("   %s" % d.summary)
        if len(self.diagnoses) > top:
            lines.append("   ... and %d more (see JSON output)"
                         % (len(self.diagnoses) - top))
        if self.deltas:
            lines.append("")
            lines.append("verified transforms (baseline %d cycles):"
                         % self.baseline.get("cycles", 0))
            for d in sorted(self.deltas, key=lambda d: -d.cycle_gain):
                if d.skipped:
                    lines.append("  %-16s skipped: %s"
                                 % (d.transform, d.skipped))
                    continue
                lines.append(
                    "  %-16s %+6.2f%% cycles (%d -> %d), "
                    "L2 misses %d -> %d, DRAM %d -> %d"
                    % (d.transform, 100 * d.cycle_gain,
                       d.baseline["cycles"], d.transformed["cycles"],
                       d.baseline["l2_misses"], d.transformed["l2_misses"],
                       d.baseline["dram"], d.transformed["dram"]))
        lines.append("")
        lines.append("verdict: %s" % self.verdict)
        return "\n".join(lines)


def advise_app(name, runner=None, scale=0.25, config=BENCH_CONFIG,
               engine=None, use_trace_cache=False, verify=True,
               max_requests=4, cluster_size=2, min_gain=MIN_GAIN,
               thresholds=None, registry=None):
    """Run the full advise pipeline for one application.

    ``runner`` overrides the internally-built
    :class:`~repro.experiments.runner.ExperimentRunner` (tests share a
    session runner this way; its config/scale then win).  With
    ``verify=False`` the baseline simulation and transform verification
    are skipped — the report carries diagnoses only.
    """
    registry = registry if registry is not None else get_registry()
    if runner is None:
        runner = ExperimentRunner(
            scale=scale, config=config, simulate=verify, engine=engine,
            use_trace_cache=use_trace_cache, strict=True)
    else:
        scale, config = runner.scale, runner.config
        verify = verify and runner.simulate
    result = runner.result(name)
    if not result.ok:
        report = AdviceReport(app=name, scale=scale, verified=False,
                              verdict="failed: %s" % result.format())
        registry.counter(
            "advise.failures",
            "applications the advisor could not profile").inc(
            1, app=name, stage=result.stage)
        return report
    run, heatmap = result.run, result.heatmap

    with tracing.span("advise.features", app=name):
        features = extract_features(heatmap, run.classifications)
        diagnoses = diagnose(features, thresholds or Thresholds())
    for d in diagnoses:
        registry.counter(
            "advise.diagnoses",
            "diagnoses emitted by the advisor rules").inc(
            1, app=name, kind=d.kind)

    report = AdviceReport(app=name, scale=scale, verified=verify,
                          features=features, diagnoses=diagnoses,
                          heatmap=heatmap)
    if not diagnoses:
        report.verdict = "no memory-critical loads diagnosed"
        return report
    if not verify:
        report.verdict = ("diagnosis only (verification disabled); "
                          "candidates: %s" % ", ".join(sorted(
                              {c for d in diagnoses for c in d.candidates})))
        return report

    report.baseline = _metrics(result.stats)
    candidates = sorted({c for d in diagnoses for c in d.candidates})
    for transform in candidates:
        with tracing.span("advise.verify", app=name,
                          transform=transform) as sp:
            try:
                configure(transform, config, max_requests,
                          cluster_size)[0].validate()
            except ValueError as exc:
                # e.g. a cluster size that does not divide the SM count
                delta = TransformDelta(transform=transform,
                                       baseline=report.baseline,
                                       transformed=dict.fromkeys(
                                           report.baseline, 0),
                                       skipped=str(exc))
            else:
                stats = simulate(run, config, transform, max_requests,
                                 cluster_size)
                delta = TransformDelta(transform=transform,
                                       baseline=report.baseline,
                                       transformed=_metrics(stats))
                sp.set(cycle_gain=delta.cycle_gain)
        report.deltas.append(delta)
        registry.counter(
            "advise.verifications",
            "transform verifications by profitability").inc(
            1, app=name, transform=transform,
            profitable=str(delta.cycle_gain >= min_gain).lower())

    viable = [d for d in report.deltas
              if not d.skipped and d.cycle_gain >= min_gain]
    if viable:
        best = max(viable, key=lambda d: d.cycle_gain)
        report.recommendation = best.transform
        report.verdict = ("apply %s: measured %+0.2f%% cycles "
                          "(%d -> %d), L2 misses %d -> %d, DRAM %d -> %d"
                          % (best.transform, 100 * best.cycle_gain,
                             best.baseline["cycles"],
                             best.transformed["cycles"],
                             best.baseline["l2_misses"],
                             best.transformed["l2_misses"],
                             best.baseline["dram"],
                             best.transformed["dram"]))
    else:
        report.verdict = ("no profitable transform: none of %s reached "
                          "the %.1f%% cycle-gain threshold"
                          % (", ".join(candidates), 100 * min_gain))
    registry.counter(
        "advise.recommendations",
        "final advisor recommendations").inc(
        1, app=name, transform=report.recommendation or "none")
    return report
