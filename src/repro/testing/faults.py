"""Deterministic fault injection for exercising failure-handling paths.

The experiment pipeline has three layers of fault tolerance (isolated
per-application failures, per-job timeouts, broken-worker recovery).
None of that machinery can be trusted unless it is driven regularly, so
this module provides the single switch that every degradation path in
the tests and the CI smoke run is keyed on:

``REPRO_INJECT_FAULTS`` is a comma-separated list of ``app:stage`` or
``app:stage:kind`` entries, e.g.::

    REPRO_INJECT_FAULTS="2mm:emulate,bfs:simulate:sleep=30"

Stages are checked with :func:`check_fault` at pipeline choke points
(``emulate`` at the top of ``Workload.run``, ``simulate``/``analyze``
inside the :class:`~repro.experiments.runner.ExperimentRunner`).  Kinds:

``error`` (default)
    raise :class:`InjectedFault`.
``sleep=N``
    sleep ``N`` seconds, then raise — for exercising job timeouts.
``exit``
    kill the *worker process* with ``os._exit`` — for exercising
    ``BrokenProcessPool`` recovery.  In the parent process this degrades
    to a plain raise so a stray variable cannot take down a test run.
``oom``
    raise :class:`~repro.resilience.guards.MemoryBudgetError` — for
    exercising resource-guard isolation without actually allocating.

The ``engine`` stage is special: its *kind* names an execution engine
(``app:engine:compiled``) and the fault fires as a
:class:`~repro.resilience.errors.CodegenError` at the top of that
engine's attempt inside :func:`~repro.workloads.base.Workload.run` —
the supported way to drive the fallback chain end-to-end without
breaking real codegen (see :func:`check_engine_fault`).

The environment variable (not an in-process registry) is the carrier so
that injection survives into ``ProcessPoolExecutor`` children, which
re-import everything under the ``spawn`` start method.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import List, Optional

from ..emulator.machine import ENGINES

#: Environment variable holding the active fault specs.
ENV_VAR = "REPRO_INJECT_FAULTS"

#: Pipeline stages that have a :func:`check_fault` hook.
STAGES = ("emulate", "simulate", "analyze")

#: The engine-failure injection stage (see :func:`check_engine_fault`);
#: its kind field names the engine to fail instead of a failure mode.
ENGINE_STAGE = "engine"



class InjectedFault(RuntimeError):
    """The deliberate failure raised by an armed fault."""

    def __init__(self, name, stage, kind="error"):
        self.name = name
        self.stage = stage
        self.kind = kind
        super().__init__("injected %s fault in %r at stage %r"
                         % (kind, name, stage))


@dataclass(frozen=True)
class FaultSpec:
    """One parsed ``app:stage[:kind]`` entry."""

    name: str
    stage: str
    kind: str = "error"

    def matches(self, name, stage):
        return self.name == name and self.stage == stage


def parse_faults(value: Optional[str]) -> List[FaultSpec]:
    """Parse a ``REPRO_INJECT_FAULTS`` value; bad entries are errors
    (silently ignoring a typo would un-arm the fault and let a broken
    degradation path pass CI)."""
    specs = []
    if not value:
        return specs
    for entry in value.split(","):
        entry = entry.strip()
        if not entry:
            continue
        parts = entry.split(":")
        if len(parts) == 2:
            name, stage = parts
            kind = "error"
        elif len(parts) == 3:
            name, stage, kind = parts
        else:
            raise ValueError("bad %s entry %r (want app:stage[:kind])"
                             % (ENV_VAR, entry))
        if stage == ENGINE_STAGE:
            if kind == "error" or kind not in ENGINES:
                raise ValueError(
                    "bad %s entry %r (the engine stage needs an engine "
                    "kind: %s)" % (ENV_VAR, entry, ", ".join(ENGINES)))
        elif stage not in STAGES:
            raise ValueError("bad %s stage %r (choices: %s)"
                             % (ENV_VAR, stage,
                                ", ".join(STAGES + (ENGINE_STAGE,))))
        elif kind not in ("error", "exit", "oom") \
                and not kind.startswith("sleep="):
            raise ValueError(
                "bad %s kind %r (choices: error, exit, oom, sleep=N)"
                % (ENV_VAR, kind))
        specs.append(FaultSpec(name, stage, kind))
    return specs


def active_faults() -> List[FaultSpec]:
    return parse_faults(os.environ.get(ENV_VAR))


def check_fault(name, stage):
    """Trigger the armed fault for ``(name, stage)``, if any.

    No-op (one env lookup) when ``REPRO_INJECT_FAULTS`` is unset, so the
    hook is safe at production choke points.
    """
    value = os.environ.get(ENV_VAR)
    if not value:
        return
    for spec in parse_faults(value):
        if spec.matches(name, stage):
            _trigger(spec)


def check_engine_fault(name, engine):
    """Fail engine ``engine`` of app ``name`` if so armed.

    Raises :class:`~repro.resilience.errors.CodegenError` — the same
    typed failure real codegen raises — so the fallback chain downgrades
    exactly as it would for a genuine infrastructure failure.  No-op
    (one env lookup) when ``REPRO_INJECT_FAULTS`` is unset.
    """
    value = os.environ.get(ENV_VAR)
    if not value:
        return
    for spec in parse_faults(value):
        if spec.name == name and spec.stage == ENGINE_STAGE \
                and spec.kind == engine:
            from ..resilience.errors import CodegenError

            raise CodegenError(
                "injected engine fault in %r" % name, engine=engine)


def _trigger(spec):
    if spec.kind.startswith("sleep="):
        time.sleep(float(spec.kind.split("=", 1)[1]))
    elif spec.kind == "exit" and multiprocessing.parent_process() is not None:
        # simulate a worker crash (segfault / OOM kill): bypass all
        # exception handling so the pool sees a dead process
        os._exit(13)
    elif spec.kind == "oom":
        from ..resilience.guards import MemoryBudgetError

        raise MemoryBudgetError(
            float("inf"), 0,
            context="injected oom in %r at stage %r"
            % (spec.name, spec.stage))
    raise InjectedFault(spec.name, spec.stage, spec.kind)


@contextmanager
def injected(name, stage, kind="error"):
    """Arm one fault for the duration of a ``with`` block (test helper).

    Appends to any faults already armed, and restores the previous
    environment on exit.
    """
    entry = "%s:%s" % (name, stage) if kind == "error" \
        else "%s:%s:%s" % (name, stage, kind)
    old = os.environ.get(ENV_VAR)
    os.environ[ENV_VAR] = entry if not old else "%s,%s" % (old, entry)
    try:
        yield
    finally:
        if old is None:
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = old
