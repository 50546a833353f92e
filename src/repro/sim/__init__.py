"""Cycle-level GPU timing simulator (the GPGPU-Sim substitute).

Replays warp traces from :mod:`repro.emulator` through a model of the
paper's simulated hardware (Table II): SIMT cores with loose round-robin
scheduling, a coalescer, L1 caches with MSHRs and the three
reservation-failure modes, a credit-based interconnect, sliced L2 caches
and banked DRAM channels.
"""

from .cache import Cache, Outcome
from .config import TESLA_C2050, TINY, GPUConfig
from .core import SMCore
from .cta_scheduler import (
    ClusteredScheduler,
    RoundRobinScheduler,
    make_scheduler,
)
from .gpu import GPU, SimulationError
from .icnt import Interconnect
from .memory_partition import MemoryPartition
from .mshr import MSHRTable
from .request import MemRequest
from .stats import CLASS_LABELS, ClassStats, PCBucket, SimStats, class_label

__all__ = [
    "Cache",
    "Outcome",
    "TESLA_C2050",
    "TINY",
    "GPUConfig",
    "SMCore",
    "ClusteredScheduler",
    "RoundRobinScheduler",
    "make_scheduler",
    "GPU",
    "SimulationError",
    "Interconnect",
    "MemoryPartition",
    "MSHRTable",
    "MemRequest",
    "CLASS_LABELS",
    "ClassStats",
    "PCBucket",
    "SimStats",
    "class_label",
]
