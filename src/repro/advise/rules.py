"""Rule-based diagnosis of memory-critical loads.

Each rule matches the trace-derived :class:`~repro.advise.features.
LoadFeatures` of one static load and, when it fires, produces a
:class:`Diagnosis` that localizes the problem to a PTX source line and
names the candidate transforms from :data:`repro.optim.TRANSFORMS`
whose measured effect the advisor should verify.  Three problem
signatures (the paper's Sections VI-VIII observations, inverted into
prescriptions):

``uncoalesced``
    A load whose warps consistently scatter over many memory lines.
    Non-deterministic ones are the paper's headline pathology; the
    coalescing oracle (:mod:`repro.optim.coalesce_oracle`) bounds the
    achievable gain.  Deterministic scattered loads are a data-layout
    problem — no trace transform models that, so no candidate is named.

``burst-prone``
    A non-deterministic load with a large worst-case line footprint per
    warp: one op floods the MSHRs/interconnect with requests.  Sub-warp
    splitting (:mod:`repro.optim.warp_split`) bounds the burst.

``cache-thrashing``
    A heavy load whose line reuse predominantly happens at intervals
    beyond on-chip cache reach.  Inter-CTA sharing decides the
    candidate: shared lines favor schedules/organizations that bring
    sharers together (clustered CTA scheduling, semi-global L2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from ..optim import COALESCE_ORACLE, CTA_CLUSTERED, SEMI_GLOBAL_L2, WARP_SPLIT


@dataclass(frozen=True)
class Thresholds:
    """Tunable cut-offs of the rule engine (defaults sized for the
    scaled benchmark harness)."""

    #: a warp of a coalesced unit-stride load touches 1-2 lines; above
    #: this mean requests/warp the load counts as uncoalesced.
    uncoalesced_requests_per_warp: float = 2.5
    #: ignore loads below this share of total coalesced traffic.
    min_traffic_share: float = 0.02
    #: worst-case lines per op above which an N load is burst-prone.
    burst_lines_per_op: int = 8
    #: fraction of re-touches beyond the far-reuse bucket for thrashing.
    thrashing_far_reuse: float = 0.5
    #: minimum traffic share for the thrashing rule (it recommends
    #: whole-application scheduling changes, so demand a heavy load).
    thrashing_traffic_share: float = 0.10
    #: accesses to CTA-shared lines above this fraction route the
    #: thrashing diagnosis toward sharing-aware candidates.
    sharing_fraction: float = 0.05


@dataclass(frozen=True)
class Diagnosis:
    """One localized problem and the transforms that might fix it."""

    kind: str                  # "uncoalesced" | "burst-prone" | ...
    kernel: str
    pc: int
    line: int                  # PTX source line (0 when unknown)
    load_class: str
    summary: str
    evidence: Dict[str, float] = field(default_factory=dict)
    candidates: Tuple[str, ...] = ()

    def where(self):
        loc = "%s pc=%#x" % (self.kernel, self.pc)
        if self.line:
            loc += " (PTX line %d)" % self.line
        return loc

    def to_json(self):
        return {
            "kind": self.kind,
            "kernel": self.kernel,
            "pc": self.pc,
            "line": self.line,
            "class": self.load_class,
            "summary": self.summary,
            "evidence": dict(self.evidence),
            "candidates": list(self.candidates),
        }


def _diagnose_load(f, th):
    out = []
    if f.traffic_share < th.min_traffic_share:
        return out
    cls = f.load_class or "?"
    if f.requests_per_warp >= th.uncoalesced_requests_per_warp:
        candidates = (COALESCE_ORACLE,) if cls == "N" else ()
        detail = ("address depends on loaded data (class N); the "
                  "coalescing oracle bounds the achievable gain"
                  if cls == "N" else
                  "address is launch-deterministic (class D): scatter "
                  "is a data-layout property, so restructure the "
                  "layout — no trace transform models this")
        out.append(Diagnosis(
            kind="uncoalesced", kernel=f.kernel, pc=f.pc, line=f.line,
            load_class=cls,
            summary="warps scatter over %.1f lines on average "
                    "(%.1f active lanes); %s"
                    % (f.requests_per_warp, f.mean_active_lanes, detail),
            evidence={"requests_per_warp": f.requests_per_warp,
                      "mean_active_lanes": f.mean_active_lanes,
                      "traffic_share": f.traffic_share},
            candidates=candidates,
        ))
    if cls == "N" and f.max_lines_per_op >= th.burst_lines_per_op:
        out.append(Diagnosis(
            kind="burst-prone", kernel=f.kernel, pc=f.pc, line=f.line,
            load_class=cls,
            summary="a single warp op touches up to %d lines — the "
                    "request burst monopolizes MSHRs/interconnect; "
                    "sub-warp splitting bounds it"
                    % f.max_lines_per_op,
            evidence={"max_lines_per_op": float(f.max_lines_per_op),
                      "requests_per_warp": f.requests_per_warp,
                      "traffic_share": f.traffic_share},
            candidates=(WARP_SPLIT,),
        ))
    if (f.traffic_share >= th.thrashing_traffic_share
            and f.far_reuse_fraction >= th.thrashing_far_reuse):
        shared = f.shared_fraction >= th.sharing_fraction
        candidates = ((CTA_CLUSTERED, SEMI_GLOBAL_L2) if shared
                      else (CTA_CLUSTERED,))
        out.append(Diagnosis(
            kind="cache-thrashing", kernel=f.kernel, pc=f.pc,
            line=f.line, load_class=cls,
            summary="%.0f%% of line reuse happens beyond on-chip cache "
                    "reach%s; reschedule so reuses land closer together"
                    % (100 * f.far_reuse_fraction,
                       " and %.0f%% of accesses hit CTA-shared lines"
                       % (100 * f.shared_fraction) if shared else ""),
            evidence={"far_reuse_fraction": f.far_reuse_fraction,
                      "shared_fraction": f.shared_fraction,
                      "traffic_share": f.traffic_share},
            candidates=candidates,
        ))
    return out


def diagnose(features, thresholds=None):
    """Run every rule over every load; diagnoses keep the feature
    list's traffic-share ordering."""
    th = thresholds or Thresholds()
    diagnoses = []
    for f in features:
        diagnoses.extend(_diagnose_load(f, th))
    return diagnoses
