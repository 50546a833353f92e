"""Closed-loop optimization advisor: heat-map profiling, rule-based
diagnosis of memory-critical loads, and simulator-verified
recommendations (the ``repro advise`` subsystem)."""

from .advisor import (
    MIN_GAIN,
    AdviceReport,
    TransformDelta,
    advise_app,
)
from ..optim import COALESCE_ORACLE, CTA_CLUSTERED, SEMI_GLOBAL_L2, WARP_SPLIT
from .features import FAR_REUSE_BUCKET, LoadFeatures, extract_features
from .rules import Diagnosis, Thresholds, diagnose

__all__ = [
    "MIN_GAIN",
    "AdviceReport",
    "TransformDelta",
    "advise_app",
    "FAR_REUSE_BUCKET",
    "LoadFeatures",
    "extract_features",
    "COALESCE_ORACLE",
    "CTA_CLUSTERED",
    "SEMI_GLOBAL_L2",
    "WARP_SPLIT",
    "Diagnosis",
    "Thresholds",
    "diagnose",
]
