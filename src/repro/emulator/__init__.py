"""Functional SIMT emulator: executes PTX-subset kernels, produces traces.

The emulator plays the role of "running the application": it executes every
thread of a kernel launch functionally (verified against host reference
implementations) and records warp-level traces with per-lane memory
addresses.  Those traces feed the timing simulator (:mod:`repro.sim`) and
the trace-level locality analyses (:mod:`repro.profiling`).
"""

from .grid import FULL_MASK, WARP_SIZE, Dim3, LaunchConfig, as_dim3, make_launch
from .machine import (
    DEFAULT_ENGINE,
    DEFAULT_MAX_WARP_INSTS,
    EMULATOR_VERSION,
    BarrierDeadlockError,
    EmulationError,
    Emulator,
    MemoryFaultError,
    WatchdogError,
)
from .memory import (
    ALLOC_ALIGN,
    GLOBAL_BASE,
    Allocation,
    MemoryError_,
    MemoryImage,
    SharedMemory,
    np_dtype_for,
)
from .columnar import ColumnarLaunchTrace, ColumnarWarpTrace
from .serialize import LoadedRun, load_run, save_run
from .trace import ApplicationTrace, TraceOp
from . import trace_cache

__all__ = [
    "FULL_MASK",
    "WARP_SIZE",
    "Dim3",
    "LaunchConfig",
    "as_dim3",
    "make_launch",
    "DEFAULT_ENGINE",
    "DEFAULT_MAX_WARP_INSTS",
    "EMULATOR_VERSION",
    "BarrierDeadlockError",
    "EmulationError",
    "Emulator",
    "MemoryFaultError",
    "WatchdogError",
    "trace_cache",
    "ALLOC_ALIGN",
    "GLOBAL_BASE",
    "Allocation",
    "MemoryError_",
    "MemoryImage",
    "SharedMemory",
    "np_dtype_for",
    "LoadedRun",
    "load_run",
    "save_run",
    "ApplicationTrace",
    "ColumnarLaunchTrace",
    "ColumnarWarpTrace",
    "TraceOp",
]
