"""Resource guards: turn an OOM kill into a structured failure.

The large benchmark tier (bfs at 100x scale) makes resident-set blowups
a realistic failure mode.  A worker the kernel OOM-kills looks like a
``BrokenProcessPool`` — no stage, no context, and the whole pool dies
with it.  These guards fail *first*, inside Python, with a
:class:`MemoryBudgetError` that the experiment runner isolates like any
other per-application failure.

``REPRO_MAX_RSS_MB`` sets a resident-set budget.  The emulator checks it
at CTA boundaries and the columnar trace builders at chunk boundaries
(both are outside the per-instruction hot loops; a chunk is
:data:`~repro.emulator.columnar.CHUNK_OPS` ops, so a warp's Python-list
staging buffers stay bounded).  The predictive race detector checks it
per streamed chunk, and the trace profile
(:mod:`repro.profiling.trace_profile`) once per launch, before it
coalesces that launch's global loads.

The RSS probe reads ``/proc/self/statm`` (one small pread) and degrades
to :func:`resource.getrusage` peak-RSS elsewhere; when neither source
exists the guard is inert rather than wrong.
"""

from __future__ import annotations

import os

ENV_MAX_RSS = "REPRO_MAX_RSS_MB"

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


class MemoryBudgetError(RuntimeError):
    """The process crossed its configured resident-set budget.

    Deliberately *not* an :class:`~repro.resilience.errors.EngineFailure`:
    retrying on another engine cannot shrink the working set, so this
    propagates to the experiment runner's per-application isolation
    instead of the fallback chain.
    """

    def __init__(self, rss_mb, budget_mb, context=None):
        self.rss_mb = rss_mb
        self.budget_mb = budget_mb
        self.context = context
        where = " during %s" % context if context else ""
        super().__init__(
            "resident set %.0f MB exceeds the %s=%d MB budget%s; the run "
            "was stopped before the kernel OOM killer would have"
            % (rss_mb, ENV_MAX_RSS, budget_mb, where))


def current_rss_mb():
    """Current resident set in MB, or ``None`` when unknown."""
    try:
        with open("/proc/self/statm", "rb") as fh:
            fields = fh.read().split()
        return int(fields[1]) * _PAGE_SIZE / (1024.0 * 1024.0)
    except (OSError, IndexError, ValueError):
        pass
    try:
        import resource

        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return peak_kb / 1024.0
    except Exception:  # noqa: BLE001 — probe only, never a new failure
        return None


def memory_budget_mb():
    """The configured budget in MB, or ``None`` when unguarded."""
    value = os.environ.get(ENV_MAX_RSS)
    if not value:
        return None
    try:
        budget = int(value)
    except ValueError:
        raise ValueError("%s must be an integer (MB), got %r"
                         % (ENV_MAX_RSS, value)) from None
    return budget if budget > 0 else None


def check_memory_budget(context=None):
    """Raise :class:`MemoryBudgetError` when over budget.

    One env lookup when unguarded, so the check is safe at production
    choke points (CTA boundaries, columnar chunk flushes, pipeline
    stage transitions).
    """
    budget = memory_budget_mb()
    if budget is None:
        return
    rss = current_rss_mb()
    if rss is not None and rss > budget:
        raise MemoryBudgetError(rss, budget, context=context)

