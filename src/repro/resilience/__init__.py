"""Self-healing execution layer: degrade, never die.

The pipeline has four classes of infrastructure failure that are *not*
the workload's fault and therefore should not abort an experiment:

* an **engine** fails — per-kernel codegen raises, a JIT backend is
  broken, or a produced trace diverges from the columnar schema
  invariants (:mod:`.fallback` retries on the next engine in the
  chain and records the downgrade);
* an **artifact** is damaged — a trace container or sweep point file
  was torn, truncated or bit-flipped (:mod:`.artifacts` checksums and
  atomically writes them; :mod:`.quarantine` moves damaged files aside
  so regeneration can heal the store);
* a **resource budget** is exceeded — the process is about to be
  OOM-killed (:mod:`.guards` turns that into a structured, isolated
  :class:`~repro.resilience.guards.MemoryBudgetError` instead);
* a **worker process** of a parallel batch raises, dies or hangs
  (:func:`.pool.run_in_pool` leaves that job out of its results, and
  stops a hung worker, so the caller can rerun or record it).  It is
  imported on first use, not here: serial runs never load
  :mod:`concurrent.futures`.

Nothing in this package imports the emulator or simulator, so every
layer of the pipeline can depend on it without cycles.  The chaos
harness (``repro.testing.chaos`` + ``pytest -m chaos``) drives each
degradation path and asserts the recovered outputs are byte-identical
to a fault-free run.
"""

from .artifacts import (
    ChecksumError,
    atomic_write_bytes,
    atomic_write_json,
    attach_checksum,
    checksum_payload,
    compute_checksum,
    verify_checksum,
    verify_payload_checksum,
)
from .errors import CodegenError, EngineFailure, TraceIntegrityError
from .fallback import (
    FALLBACK_CHAIN,
    FallbackEvent,
    fallback_chain,
    run_with_fallback,
)
from .guards import (
    MemoryBudgetError,
    check_memory_budget,
    current_rss_mb,
    memory_budget_mb,
)
from .quarantine import CORRUPT_DIR, quarantine_file

__all__ = [
    "CORRUPT_DIR",
    "ChecksumError",
    "CodegenError",
    "EngineFailure",
    "FALLBACK_CHAIN",
    "FallbackEvent",
    "MemoryBudgetError",
    "TraceIntegrityError",
    "atomic_write_bytes",
    "atomic_write_json",
    "attach_checksum",
    "check_memory_budget",
    "checksum_payload",
    "compute_checksum",
    "current_rss_mb",
    "fallback_chain",
    "memory_budget_mb",
    "quarantine_file",
    "run_with_fallback",
    "verify_checksum",
    "verify_payload_checksum",
]
