"""The artifact store: one interface over every durable byte.

The pipeline produces four families of durable artifacts — cached
traces, sweep point results, job records and job results.  A
:class:`LocalDirStore` holds each of them: a flat namespace of
``/``-separated keys over blobs in one directory tree, with the
crash-consistency guarantees of :mod:`repro.resilience.artifacts`
(atomic tempfile+rename publication, JSON payload self-checksums)
built in rather than re-implemented per caller.  Keys map to relative
paths, and damaged entries can be quarantined into the directory's
``.corrupt/`` sidecar.

:func:`open_store` turns a location (``/path`` or ``file:///path``)
into a store, so every consumer — the trace cache's
``REPRO_TRACE_CACHE_DIR``, ``repro serve --store`` — selects its
storage the same way.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import List

from ..resilience.artifacts import (
    atomic_write_bytes,
    verify_payload_checksum,
)
from ..resilience.quarantine import quarantine_file

__all__ = [
    "LocalDirStore",
    "StoreError",
    "open_store",
]


class StoreError(RuntimeError):
    """An artifact store operation failed structurally (bad key,
    unusable location) — distinct from a missing key (``KeyError``)."""


def _json_bytes(payload):
    """The canonical JSON artifact encoding (shared with
    :func:`repro.resilience.artifacts.atomic_write_json`): indent 2,
    sorted keys, trailing newline."""
    text = json.dumps(payload, indent=2, sort_keys=True, default=str)
    return (text + "\n").encode("utf-8")


class LocalDirStore:
    """Artifacts as files under one root directory.

    Keys are relative POSIX-style paths (``jobs/j000003.json``,
    ``<sha>.trace``).  Reads of missing keys raise ``KeyError`` so
    "absent" and "unreadable" stay distinguishable; I/O errors surface
    as ``OSError`` and structural misuse as :class:`StoreError`.

    All writes go through the crash-consistent
    :func:`~repro.resilience.artifacts.atomic_write_bytes` path, so a
    reader (or a resume after SIGKILL) sees whole blobs or nothing.
    Quarantine delegates to the ``.corrupt/`` sidecar convention shared
    with the trace cache and sweep points.
    """

    def __init__(self, root, fsync=True):
        self.root = Path(root)
        self.fsync = fsync

    def _path(self, key):
        key = str(key)
        if not key or key.startswith(("/", "\\")):
            raise StoreError("bad artifact key %r (absolute or empty)" % key)
        parts = Path(key).parts
        if ".." in parts:
            raise StoreError("bad artifact key %r (escapes the root)" % key)
        return self.root.joinpath(*parts)

    # -- primitives -------------------------------------------------------

    def put_bytes(self, key, data):
        """Atomically publish ``data`` under ``key`` (overwrites)."""
        atomic_write_bytes(self._path(key), data, fsync=self.fsync)

    def get_bytes(self, key):
        """The blob at ``key``; raises ``KeyError`` when absent."""
        path = self._path(key)
        try:
            return path.read_bytes()
        except FileNotFoundError:
            raise KeyError(key) from None

    def exists(self, key):
        """True when ``key`` currently resolves to a blob."""
        return self._path(key).is_file()

    def delete(self, key):
        """Remove ``key``; returns True when something was removed."""
        try:
            self._path(key).unlink()
            return True
        except FileNotFoundError:
            return False

    def keys(self, prefix=""):
        """Sorted keys under ``prefix`` (deterministic order)."""
        base = self.root
        if not base.is_dir():
            return []
        out: List[str] = []
        for path in base.rglob("*"):
            if not path.is_file():
                continue
            rel = path.relative_to(base).as_posix()
            # quarantine sidecars and in-flight temporaries are not
            # published artifacts
            if "/.corrupt/" in "/" + rel or rel.startswith(".corrupt/"):
                continue
            if path.name.startswith(".tmp-"):
                continue
            if prefix and not rel.startswith(prefix):
                continue
            out.append(rel)
        return sorted(out)

    # -- JSON layer -------------------------------------------------------

    def put_json(self, key, payload):
        """Store a JSON payload in the canonical artifact encoding."""
        self.put_bytes(key, _json_bytes(payload))

    def get_json(self, key, verify=True):
        """Load a JSON payload; with ``verify`` the payload's
        self-checksum (when present) is validated —
        :class:`~repro.resilience.artifacts.ChecksumError` on mismatch.
        """
        payload = json.loads(self.get_bytes(key).decode("utf-8"))
        if verify:
            verify_payload_checksum(payload, path=key)
        return payload

    # -- files --------------------------------------------------------------

    def path_of(self, key):
        """The filesystem path behind ``key`` (memory-mapped trace
        loads read it directly)."""
        return self._path(key)

    def put_file(self, key, producer):
        """Producer writes a sibling temp file; an ``os.replace`` makes
        publication atomic without buffering the blob in memory."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            prefix=".tmp-" + path.name[:24] + "-",
            suffix=path.suffix or ".part", dir=str(path.parent))
        os.close(fd)
        try:
            producer(tmp)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
        return path

    def quarantine(self, key, kind="artifact", reason="corrupt"):
        """Move a damaged entry out of the lookup path, keeping the
        bytes inspectable."""
        return quarantine_file(self._path(key), kind=kind, reason=reason)

    def describe(self):
        """Human-readable location string (for logs and manifests)."""
        return str(self.root)


def open_store(url):
    """The :class:`LocalDirStore` behind a location string: a plain
    path or a ``file:///abs/path`` URL."""
    url = str(url)
    if url.startswith("file://"):
        url = url[len("file://"):]
    if not url:
        raise StoreError("empty store location")
    return LocalDirStore(url)
