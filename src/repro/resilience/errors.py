"""Failure taxonomy of the resilience layer.

The split that matters is *whose fault it is*:

* :class:`EngineFailure` and subclasses mean the execution **engine's
  infrastructure** broke — the kernel itself may be perfectly fine, so
  retrying on a simpler engine is both safe and likely to succeed.
  The fallback chain (:mod:`repro.resilience.fallback`) catches
  exactly this family and nothing else; semantic emulation errors
  (memory faults, watchdog, barrier deadlocks) are properties of the
  *kernel* and reproduce identically on every engine, so retrying
  them would only mask real bugs.
* Artifact damage (:class:`~repro.resilience.artifacts.ChecksumError`,
  truncation errors raised by the loaders) means a **file** is bad —
  the artifact store quarantines it and regenerates.
"""

from __future__ import annotations


class EngineFailure(Exception):
    """An execution engine's infrastructure failed (not the kernel).

    Raising this (or a subclass) from inside an emulation attempt tells
    the fallback chain that re-running on a simpler engine is safe and
    worthwhile.
    """

    #: short machine-readable reason recorded in ``engine.fallbacks``
    #: metrics and run manifests; subclasses override.
    reason = "engine_failure"


class CodegenError(EngineFailure):
    """Per-kernel code generation or compilation raised.

    Wraps whatever the generator threw (syntax assembly bugs, a broken
    ``compile()``/JIT toolchain, an injected chaos fault) so the caller
    can distinguish "the compiled engine cannot run this kernel" from
    "this kernel is broken".
    """

    reason = "codegen"

    def __init__(self, detail, kernel=None, engine="compiled"):
        self.kernel = kernel
        self.engine = engine
        where = " for kernel %r" % kernel if kernel else ""
        super().__init__("%s engine code generation failed%s: %s"
                         % (engine, where, detail))


class TraceIntegrityError(EngineFailure, ValueError):
    """A produced (or loaded) trace violates the columnar schema
    invariants — column lengths, ragged-table offsets or kind codes
    disagree.

    Doubles as a :class:`ValueError` so artifact loaders that predate
    the resilience layer (and the trace cache's corrupt-entry
    handling) keep treating it as structural corruption.
    """

    reason = "trace_integrity"


#: exception attributes a failure record copies when present: the
#: structured fields of MemoryFaultError, WatchdogError,
#: BarrierDeadlockError, SimulationError, MemoryBudgetError,
#: ConvergenceError and injected faults.
CONTEXT_FIELDS = ("kernel", "pc", "cta", "warp", "lane", "address",
                  "space", "budget", "warp_status", "rss_mb", "budget_mb",
                  "round", "steps", "stage")


def error_context(exc):
    """``{field: value}`` for every :data:`CONTEXT_FIELDS` attribute of
    ``exc`` that is set, so a failure record says *where* it failed."""
    context = {}
    for attr in CONTEXT_FIELDS:
        value = getattr(exc, attr, None)
        if value is not None:
            context[attr] = value
    return context
