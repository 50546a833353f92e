"""repro — reproduction of "Revealing Critical Loads and Hidden Data
Locality in GPGPU Applications" (Koo, Jeon, Annavaram; IISWC 2015).

The package layers bottom-up:

* :mod:`repro.ptx` — PTX-subset ISA, parser, builder, CFG;
* :mod:`repro.core` — the paper's contribution: backward-dataflow
  classification of global loads into deterministic / non-deterministic;
* :mod:`repro.emulator` — functional SIMT execution producing warp traces;
* :mod:`repro.sim` — cycle-level GPU timing model (GPGPU-Sim substitute);
* :mod:`repro.workloads` — the 15 Table I applications over synthetic
  inputs;
* :mod:`repro.profiling` — locality analysis, profiler counters and
  turnaround breakdowns;
* :mod:`repro.experiments` — harness regenerating every table and figure;
* :mod:`repro.optim` — the Section X microarchitectural suggestions as
  runnable ablations.

Quick start::

    from repro import get_workload, GPU, TESLA_C2050

    run = get_workload("bfs", scale=0.25).run()
    for name, result in run.classifications.items():
        print(name, [str(l) for l in result])
    gpu = GPU(TESLA_C2050.scaled(num_sms=4))
    stats = gpu.run_application(run.trace, run.classifications)
    print(stats.l1_cycle_fractions())
"""

from .core import (
    ClassificationResult,
    ClassifiedLoad,
    LoadClass,
    LoadClassifier,
    Provenance,
    classify_kernel,
    classify_module,
)
from .emulator import Dim3, Emulator, LaunchConfig, MemoryImage
from .ptx import CFG, Kernel, KernelBuilder, Module, parse_kernel, parse_module
from .sim import GPU, TESLA_C2050, TINY, GPUConfig, SimStats
from .workloads import Workload, WorkloadRun, get_workload, workload_names

__version__ = "1.0.0"

__all__ = [
    "ClassificationResult",
    "ClassifiedLoad",
    "LoadClass",
    "LoadClassifier",
    "Provenance",
    "classify_kernel",
    "classify_module",
    "Dim3",
    "Emulator",
    "LaunchConfig",
    "MemoryImage",
    "CFG",
    "Kernel",
    "KernelBuilder",
    "Module",
    "parse_kernel",
    "parse_module",
    "GPU",
    "TESLA_C2050",
    "TINY",
    "GPUConfig",
    "SimStats",
    "Workload",
    "WorkloadRun",
    "get_workload",
    "workload_names",
    "__version__",
]
