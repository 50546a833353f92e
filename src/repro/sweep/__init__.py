"""Declarative, sharded, resumable parameter sweeps.

The sweep subsystem turns the repo's one-off ablation scripts into a
reproducible experiment matrix (DESIGN.md section 11):

* :mod:`.spec` — JSON sweep specifications, deterministic grid
  expansion, content-addressed point keys, shard assignment;
* :mod:`.engine` — sharded/resumable execution over the trace cache
  and experiment runner, writing per-point result files;
* :mod:`.metrics` — the named scalar metrics extracted per point;
* :mod:`.report` — merging point files (from any number of shard
  directories) into byte-deterministic aggregate reports;
* :mod:`.compare` — tolerance-based regression checking between two
  metric documents (the CI perf gate's primitive).

Committed specs live under ``sweeps/`` at the repo root; the CLI
front-end is ``repro sweep run|status|report|compare``.
"""

from .compare import (
    CompareResult,
    Delta,
    Rule,
    compare,
    compare_files,
    flatten,
    parse_rule,
)
from .engine import (
    PointOutcome,
    SweepEngine,
    SweepError,
    build_config,
    simulate_point,
)
from .metrics import METRIC_NAMES, collect_metrics
from .report import (
    ReportError,
    build_report,
    load_sweep_spec,
    render_report,
    report_bytes,
    scan_points,
    sweep_status,
    write_report,
)
from .spec import (
    BASE_CONFIGS,
    SWEEP_SCHEMA_VERSION,
    SpecError,
    SweepPoint,
    SweepSpec,
    expand,
    parse_shard,
    point_key,
    resolve_base_config,
    shard,
    spec_hash,
    versions,
)

__all__ = [
    "BASE_CONFIGS",
    "CompareResult",
    "Delta",
    "METRIC_NAMES",
    "PointOutcome",
    "ReportError",
    "Rule",
    "SWEEP_SCHEMA_VERSION",
    "SpecError",
    "SweepEngine",
    "SweepError",
    "SweepPoint",
    "SweepSpec",
    "build_config",
    "build_report",
    "collect_metrics",
    "compare",
    "compare_files",
    "expand",
    "flatten",
    "load_sweep_spec",
    "parse_rule",
    "parse_shard",
    "point_key",
    "render_report",
    "report_bytes",
    "resolve_base_config",
    "scan_points",
    "shard",
    "simulate_point",
    "spec_hash",
    "sweep_status",
    "versions",
]
