"""Profiling layer: locality analysis, profiler counters and turnaround
breakdowns — everything the paper derives beyond raw simulation stats."""

from .counters import (
    COUNTER_DESCRIPTIONS,
    collect_counters,
    shared_per_global_ratio,
)
from .critical import (
    CriticalLoad,
    format_critical_loads,
    rank_critical_loads,
    stall_share_by_class,
)
from .heatmap import (
    HeatMapAggregator,
    HeatMapReport,
    LineHeat,
    PCHeat,
    heatmap_of_run,
    reuse_bucket,
)
from .irregularity import IrregularityReport, measure_irregularity
from .locality import (
    LocalityAnalyzer,
    LocalityReport,
    analyze_run,
)
from .turnaround import (
    RequestCountPoint,
    TurnaroundBreakdown,
    busiest_load_pcs,
    class_breakdown,
    pc_turnaround_series,
)

__all__ = [
    "COUNTER_DESCRIPTIONS",
    "collect_counters",
    "shared_per_global_ratio",
    "CriticalLoad",
    "format_critical_loads",
    "rank_critical_loads",
    "stall_share_by_class",
    "HeatMapAggregator",
    "HeatMapReport",
    "LineHeat",
    "PCHeat",
    "heatmap_of_run",
    "reuse_bucket",
    "IrregularityReport",
    "measure_irregularity",
    "LocalityAnalyzer",
    "LocalityReport",
    "analyze_run",
    "RequestCountPoint",
    "TurnaroundBreakdown",
    "busiest_load_pcs",
    "class_breakdown",
    "pc_turnaround_series",
]
