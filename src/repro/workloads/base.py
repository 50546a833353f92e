"""Workload framework: how an application is defined, run and verified.

A workload is the reproduction's equivalent of one paper benchmark.  It
bundles:

* PTX-subset source for its kernels,
* host-side orchestration (input generation, launches, readback — the
  part a CUDA application runs on the CPU),
* a functional verifier against a numpy/networkx reference, and
* Table I metadata (category, data-set description).

``Workload.run()`` produces a :class:`WorkloadRun`: the parsed module,
per-kernel load classifications, the application trace and the final
memory image — everything the profiling and simulation layers consume.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Dict, List

from ..core import ClassificationResult, classify_kernel
from ..emulator import ApplicationTrace, Emulator, MemoryImage
from ..emulator import machine as _machine
from ..obs import tracing
from ..ptx import Module, parse_module
from ..resilience.fallback import run_with_fallback
from ..testing.faults import check_engine_fault, check_fault


class ConvergenceError(RuntimeError):
    """A host-side iteration of an application did not converge within
    its bound: ``app``'s round ``round`` ran ``steps`` steps."""

    def __init__(self, app, round, steps):
        self.app = app
        self.round = round
        self.steps = steps
        super().__init__("%s: round %d did not converge in %d steps"
                         % (app, round, steps))


@dataclass
class WorkloadRun:
    """Everything produced by one complete application run."""

    workload: "Workload"
    module: Module
    memory: MemoryImage
    trace: ApplicationTrace
    classifications: Dict[str, ClassificationResult]
    #: wall seconds per pipeline phase (``parse``, ``classify``,
    #: ``setup``, ``emulate``, ``verify``) — lets benchmarks separate
    #: engine time from input generation.
    timings: Dict[str, float] = field(default_factory=dict)
    #: the engine that actually produced the trace (after any
    #: fallbacks; ``""`` only on hand-built runs).
    engine: str = ""
    #: engine downgrades recorded on the way (JSON dicts with
    #: ``from``/``to``/``reason`` — see
    #: :class:`~repro.resilience.fallback.FallbackEvent`).
    fallbacks: List[dict] = field(default_factory=list)

    # -- aggregate views --------------------------------------------------

    def dynamic_class_split(self):
        """Dynamic (execution-weighted) ``(deterministic, nondet)`` global
        load counts across all kernels — the per-app bar of Figure 1."""
        det = 0
        nondet = 0
        for name, result in self.classifications.items():
            counts = self.trace.dynamic_counts_by_pc(name)
            for load in result:
                n = counts.get(load.pc, 0)
                if load.is_deterministic:
                    det += n
                else:
                    nondet += n
        return det, nondet


class Workload(abc.ABC):
    """Base class for the 15 benchmark applications.

    Subclasses set the class attributes and implement the four hooks:
    :meth:`ptx` (kernel source), :meth:`setup` (input generation +
    device allocation), :meth:`host` (the launch sequence) and
    :meth:`verify` (functional check against a reference).
    """

    #: short name, matching the paper's Table I (e.g. ``"bfs"``).
    name: str = ""
    #: ``"linear"``, ``"image"`` or ``"graph"``.
    category: str = ""
    #: one-line description (Table I's Description column).
    description: str = ""
    #: description of the generated input (Table I's Data set column).
    data_set: str = ""
    #: True for extended-suite applications beyond the paper's Table I.
    extended: bool = False

    def __init__(self, scale=1.0, seed=7):
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.scale = scale
        self.seed = seed

    # -- hooks ------------------------------------------------------------

    @abc.abstractmethod
    def ptx(self):
        """PTX-subset source text for every kernel of the app."""

    @abc.abstractmethod
    def setup(self, mem):
        """Generate inputs and allocate device buffers.

        Implementations stash whatever handles :meth:`host` and
        :meth:`verify` need on ``self``.
        """

    @abc.abstractmethod
    def host(self, emu, module):
        """The host program: performs kernel launches via ``emu.launch``
        and yields each
        :class:`~repro.emulator.columnar.ColumnarLaunchTrace` in order."""

    @abc.abstractmethod
    def verify(self, mem):
        """Assert functional correctness of the final memory state
        against a numpy / networkx reference implementation."""

    # -- driver --------------------------------------------------------------

    def run(self, verify=True, max_warp_insts=None, engine=None):
        """Execute the full application; returns a :class:`WorkloadRun`.

        ``engine`` selects the emulator's warp-execution engine
        (``"vectorized"``, ``"scalar"`` or ``"compiled"``; ``None`` =
        the emulator default).  ``max_warp_insts=None`` resolves to the
        ``REPRO_EMULATOR_MAX_WARP_INSTS`` environment variable, else the
        emulator's built-in watchdog budget.

        Engine *infrastructure* failures (codegen errors, trace
        integrity violations) transparently retry down the fallback
        chain (``compiled -> vectorized -> scalar``); each attempt
        restarts from a fresh memory image, because a failed engine may
        already have executed stores.  Downgrades land in
        :attr:`WorkloadRun.fallbacks` and the ``engine.fallbacks``
        counter.  Semantic failures (memory faults, watchdog, barrier
        deadlock) reproduce on every engine and propagate unchanged.
        """
        check_fault(self.name, "emulate")
        timings = {}
        clock = time.perf_counter
        t0 = clock()
        with tracing.span("parse", app=self.name):
            module = parse_module(self.ptx())
        timings["parse"] = clock() - t0
        t0 = clock()
        with tracing.span("classify", app=self.name,
                          kernels=len(list(module))):
            classifications = {k.name: classify_kernel(k) for k in module}
        timings["classify"] = clock() - t0

        def attempt(engine_name):
            check_engine_fault(self.name, engine_name)
            mem = MemoryImage()
            t0 = clock()
            with tracing.span("setup", app=self.name, scale=self.scale,
                              seed=self.seed):
                self.setup(mem)
            timings["setup"] = clock() - t0
            emu = Emulator(mem, max_warp_insts=max_warp_insts,
                           engine=engine_name)
            app = ApplicationTrace(name=self.name)
            t0 = clock()
            with tracing.span("emulate", app=self.name,
                              engine=emu.engine) as sp:
                for launch_trace in self.host(emu, module):
                    app.add(launch_trace)
                sp.set(launches=len(app.launches))
            timings["emulate"] = clock() - t0
            return mem, app

        requested = engine if engine is not None else _machine.DEFAULT_ENGINE
        (mem, app), engine_used, events = run_with_fallback(
            attempt, requested, app=self.name)
        if verify:
            t0 = clock()
            with tracing.span("verify", app=self.name):
                self.verify(mem)
            timings["verify"] = clock() - t0
        return WorkloadRun(
            workload=self,
            module=module,
            memory=mem,
            trace=app,
            classifications=classifications,
            timings=timings,
            engine=engine_used,
            fallbacks=[e.to_json() for e in events],
        )

    # -- helpers for subclasses ------------------------------------------------

    def dim(self, base, minimum=1, multiple=1):
        """Scale a base size by ``self.scale``, clamped and rounded to a
        multiple (keeps matrix tiles and CTA shapes aligned)."""
        value = max(minimum, int(round(base * self.scale)))
        if multiple > 1:
            value = max(multiple, (value // multiple) * multiple)
        return value

    def __repr__(self):
        return "%s(scale=%s)" % (type(self).__name__, self.scale)
