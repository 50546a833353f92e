"""Per-load feature extraction for the optimization advisor.

Turns a finalized :class:`~repro.profiling.heatmap.HeatMapReport` into a
flat list of :class:`LoadFeatures` — one per static global load — that
the rule engine (:mod:`repro.advise.rules`) matches against.  Every
feature is trace-derived (no timing-model state), so extraction is
cheap and works on cache-hit runs that were never simulated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

#: reuse-interval bucket at which a line's reuse is considered to have
#: outlived any realistic on-chip cache at benchmark scale: bucket 10
#: covers reuse intervals of 512-1023 coalesced accesses, i.e.
#: 64-128 KB of unique-line traffic at 128 B lines — beyond the scaled
#: L2 of the benchmark harness.
FAR_REUSE_BUCKET = 10


@dataclass(frozen=True)
class LoadFeatures:
    """Everything the diagnosis rules know about one static load."""

    kernel: str
    pc: int
    #: PTX source line (0 when unknown) and canonical instruction text.
    line: int
    text: str
    #: "D", "N", or ``None`` when the load was never classified.
    load_class: Optional[str]
    #: PCs of the data loads tainting this load's address (N loads).
    tainting_pcs: Tuple[int, ...]
    warp_ops: int
    #: mean coalesced requests per executed warp instruction.
    requests_per_warp: float
    mean_active_lanes: float
    #: worst-case distinct lines touched by a single warp op.
    max_lines_per_op: int
    #: fraction of this load's coalesced accesses that were the first
    #: touch of their line (compulsory misses).
    cold_miss_ratio: float
    #: fraction of accesses landing on lines touched by >= 2 CTAs.
    shared_fraction: float
    #: fraction of this load's line *re-touches* whose reuse interval is
    #: in bucket :data:`FAR_REUSE_BUCKET` or beyond.
    far_reuse_fraction: float
    #: this load's share of the application's coalesced global traffic.
    traffic_share: float

    def to_json(self):
        return {
            "kernel": self.kernel,
            "pc": self.pc,
            "line": self.line,
            "text": self.text,
            "class": self.load_class,
            "tainting_pcs": list(self.tainting_pcs),
            "warp_ops": self.warp_ops,
            "requests_per_warp": self.requests_per_warp,
            "mean_active_lanes": self.mean_active_lanes,
            "max_lines_per_op": self.max_lines_per_op,
            "cold_miss_ratio": self.cold_miss_ratio,
            "shared_fraction": self.shared_fraction,
            "far_reuse_fraction": self.far_reuse_fraction,
            "traffic_share": self.traffic_share,
        }


def extract_features(report, classifications=None,
                     far_bucket=FAR_REUSE_BUCKET):
    """Features for every load PC in a heat-map report, sorted by
    descending traffic share.

    ``classifications`` fills in tainting PCs (and class/line/text when
    the report was finalized without them).
    """
    total = report.total_touches or 1
    features = []
    for heat in report.pcs.values():
        load_class, line, text = heat.load_class, heat.line, heat.text
        tainting = ()
        if classifications is not None:
            result = classifications.get(heat.kernel)
            found = result.get(heat.pc) if result is not None else None
            if found is not None:
                load_class = str(found.load_class)
                line = found.instruction.line
                text = str(found.instruction)
                tainting = found.tainting_pcs
        features.append(LoadFeatures(
            kernel=heat.kernel,
            pc=heat.pc,
            line=line,
            text=text,
            load_class=load_class,
            tainting_pcs=tuple(tainting),
            warp_ops=heat.warp_ops,
            requests_per_warp=heat.requests_per_warp(),
            mean_active_lanes=heat.mean_active_lanes(),
            max_lines_per_op=heat.max_lines_per_op,
            cold_miss_ratio=heat.cold_miss_ratio(),
            shared_fraction=heat.shared_fraction(),
            far_reuse_fraction=heat.reuse_fraction_beyond(far_bucket),
            traffic_share=heat.line_touches / total,
        ))
    features.sort(key=lambda f: (-f.traffic_share, f.kernel, f.pc))
    return features
