"""Profiling layer: the one trace-profile pass (locality, heat map,
request histograms), profiler counters and turnaround breakdowns —
everything the paper derives beyond raw simulation stats."""

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
from .heatmap import HeatMapReport, LineHeat, PCHeat, reuse_bucket
from .irregularity import IrregularityReport, measure_irregularity
from .locality import LocalityReport
from .trace_profile import TraceProfile, TraceProfiler, profile_trace
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
    "HeatMapReport",
    "LineHeat",
    "PCHeat",
    "reuse_bucket",
    "IrregularityReport",
    "measure_irregularity",
    "LocalityReport",
    "TraceProfile",
    "TraceProfiler",
    "profile_trace",
    "RequestCountPoint",
    "TurnaroundBreakdown",
    "busiest_load_pcs",
    "class_breakdown",
    "pc_turnaround_series",
]
