"""Content-addressed cache of serialized application traces.

Emulation dominates the wall-clock cost of every figure and table in
the reproduction; the trace produced for a given (workload, scale,
seed) never changes unless the kernels or the emulator itself change.
This module memoizes :func:`~.serialize.save_run` outputs, keyed by
the *content* that determines the trace:

* the workload name,
* the printed PTX of every kernel (so editing a kernel invalidates),
* the input ``seed`` and ``scale`` (they shape the generated inputs
  and launch geometry), and
* the emulator's :data:`~.machine.EMULATOR_VERSION` (bumped whenever a
  semantic change could alter emitted traces).

The serialization format version is *not* part of the key: a format
bump leaves keys alone, and an entry the current loader cannot read is
handled like any other damaged entry (quarantined, then regenerated).

Entries live in a :class:`~repro.service.store.LocalDirStore` under
``<key>.trace`` names (the exact :func:`save_run` byte format, so a
cache entry is also a normal trace file, memory-mapped on load).  The
directory is

* ``$REPRO_TRACE_CACHE_DIR`` if set, else
* ``~/.cache/repro-traces``.

``REPRO_TRACE_CACHE=0`` disables the cache entirely.  A corrupted or
truncated entry (including a checksum mismatch detected on mmap load)
is quarantined into the directory's ``.corrupt/`` sidecar, counted
under ``trace_cache.quarantined``, and treated as a
miss — the caller re-emulates and the following store heals the cache,
while the damaged bytes stay inspectable.  Writes are atomic
(temporary file + rename via the store), so concurrent experiment
workers never observe partial entries.
"""

from __future__ import annotations

import hashlib
import os
import time
from pathlib import Path

from ..obs.metrics import get_registry
from ..resilience.quarantine import quarantined_entries
from .machine import EMULATOR_VERSION
from .serialize import load_run, save_run

_ENV_DIR = "REPRO_TRACE_CACHE_DIR"
_ENV_SWITCH = "REPRO_TRACE_CACHE"
_SUFFIX = ".trace"

#: Back-off delays (seconds) between retries of transient cache I/O
#: failures.  Short: the cache is best-effort and the fallback — a
#: re-emulation — is always correct.
_RETRY_DELAYS = (0.05, 0.2)


def _count(result):
    """Tally one cache operation in the metrics registry."""
    get_registry().counter(
        "trace_cache.operations",
        "trace-cache lookups/stores by result").inc(1, result=result)


def _count_corrupt():
    """Tally one evicted corrupt/truncated entry (e.g. a killed worker's
    partial write) — distinct from transient I/O errors."""
    get_registry().counter(
        "trace_cache.corrupt",
        "corrupt or truncated cache entries evicted on lookup").inc(1)


def _count_quarantined():
    """Tally one damaged entry moved to the ``.corrupt/`` sidecar."""
    get_registry().counter(
        "trace_cache.quarantined",
        "damaged cache entries moved to quarantine").inc(1)


def _quarantine(name):
    """Move a damaged entry out of the lookup path (never raises)."""
    try:
        cache_store().quarantine(name, kind="trace_cache",
                                 reason="corrupt")
    except Exception:  # noqa: BLE001 — quarantine is best-effort
        pass
    _count_quarantined()


def cache_enabled():
    """False when the user set ``REPRO_TRACE_CACHE=0`` (or empty)."""
    value = os.environ.get(_ENV_SWITCH)
    if value is None:
        return True
    return value.strip().lower() not in ("", "0", "false", "no", "off")


def cache_dir():
    """The local cache directory (not created until the first store)."""
    override = os.environ.get(_ENV_DIR)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-traces"


def cache_store():
    """The :class:`~repro.service.store.LocalDirStore` over
    :func:`cache_dir` (rebuilt per call so env changes in tests take
    effect immediately)."""
    from ..service.store import LocalDirStore

    return LocalDirStore(cache_dir(), fsync=False)


def trace_key(name, ptx, seed, scale):
    """The content hash identifying one emulation's trace.

    ``ptx`` must be the *printed* module text (the parser/printer
    roundtrip is canonicalizing, so cosmetic source differences hash
    identically while any semantic edit changes the key).
    """
    h = hashlib.sha256()
    for part in (
        "repro-trace",
        "emulator=%d" % EMULATOR_VERSION,
        "name=%s" % name,
        "seed=%r" % (seed,),
        "scale=%r" % (scale,),
    ):
        h.update(part.encode("utf-8"))
        h.update(b"\0")
    h.update(ptx.encode("utf-8"))
    return h.hexdigest()


def entry_path(key) -> Path:
    """The local path of ``key``'s entry."""
    return cache_store().path_of(key + _SUFFIX)


def lookup(key):
    """Load the cached :class:`LoadedRun` for ``key``, or ``None``.

    A cache problem is never fatal: transient I/O errors (``OSError``,
    truncated reads, ``BufferError`` from a dying mmap) are retried
    once after a short delay, then treated as a miss; corrupt entries
    (persistently truncated streams, bad JSON, a foreign or outdated
    format, column checksum mismatches, unparsable PTX) are quarantined
    so the next store can heal the cache while the evidence survives.
    """
    if not cache_enabled():
        return None
    backend = cache_store()
    name = key + _SUFFIX
    path = backend.path_of(name)
    for delay in (_RETRY_DELAYS[0], None):
        try:
            if not path.is_file():
                _count("miss")
                return None
            run = load_run(path)
            _count("hit")
            return run
        except (OSError, EOFError, BufferError) as exc:
            # possibly transient (NFS hiccup, read racing a writer, a
            # remapped page under an mmap view): retry once before
            # deciding
            if delay is not None:
                time.sleep(delay)
                continue
            if not isinstance(exc, OSError):
                # stores are atomic (tempfile + rename), so a short
                # stream that survives the retry is real corruption
                _quarantine(name)
                _count_corrupt()
            _count("error")
            return None
        except Exception:
            # structurally corrupt: quarantine so a later store heals
            # the entry and the damaged bytes stay inspectable
            _quarantine(name)
            _count_corrupt()
            _count("error")
            return None
    return None


def store(key, run):
    """Serialize ``run`` into the cache under ``key`` (atomic).

    Returns the entry path, or ``None`` when the cache is disabled or
    the directory is unwritable (caching is best-effort; emulation
    results are never lost to a cache failure).
    """
    if not cache_enabled():
        return None
    backend = cache_store()
    name = key + _SUFFIX
    for delay in _RETRY_DELAYS + (None,):
        try:
            path = backend.put_file(name, lambda tmp: save_run(run, tmp))
        except OSError:
            if delay is not None:
                time.sleep(delay)
                continue
            _count("store_error")
            return None
        _count("store")
        return path
    return None


def _entry_names(backend):
    return [name for name in backend.keys() if name.endswith(_SUFFIX)]


def clear():
    """Delete every cache entry (quarantined ones included); returns
    the number removed."""
    from ..resilience.quarantine import clear_quarantine

    backend = cache_store()
    removed = 0
    for name in _entry_names(backend):
        try:
            if backend.delete(name):
                removed += 1
        except OSError:
            pass
    if backend.root.is_dir():
        removed += clear_quarantine(backend.root)
    return removed


def quarantine_stats():
    """``(entry_count, total_bytes)`` for the quarantine sidecar."""
    count = 0
    total = 0
    for entry in quarantined_entries(cache_store().root):
        try:
            total += entry.stat().st_size
            count += 1
        except OSError:
            pass
    return count, total


def stats():
    """``(entry_count, total_bytes)`` for the cache directory."""
    backend = cache_store()
    count = 0
    total = 0
    for name in _entry_names(backend):
        try:
            total += backend.path_of(name).stat().st_size
            count += 1
        except OSError:
            pass
    return count, total
