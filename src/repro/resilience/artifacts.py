"""Crash-consistent artifact I/O: checksums + atomic writes.

Every durable artifact the pipeline produces (v3 trace containers,
sweep point results, manifests, failure reports) goes through two
defenses:

* **atomic replacement** — payloads are written to a same-directory
  temporary file, flushed and fsynced, then :func:`os.replace`'d into
  place, so a concurrent reader (or a reader after a SIGKILL) observes
  either the old content or the new content, never a torn prefix;
* **content checksums** — the payload carries a digest of its own
  bytes, so silent corruption *after* the write (bit rot, a torn page,
  hostile tests) is detected on load instead of producing wrong
  numbers.

The digest algorithm is ``sha256``.  Records name their algorithm,
and loaders *skip* unknown names rather than reject them: a future
writer must not brick an old reader.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

#: JSON key under which payload self-checksums are stored.
CHECKSUM_KEY = "checksum"


class ChecksumError(ValueError):
    """An artifact's content digest does not match its recorded one."""

    def __init__(self, path, algo, expected, actual):
        self.path = str(path)
        self.algo = algo
        self.expected = expected
        self.actual = actual
        super().__init__(
            "corrupt artifact %s: %s digest %s does not match recorded %s"
            % (path, algo, actual, expected))


def _hasher(algo):
    return hashlib.sha256() if algo == "sha256" else None


def compute_checksum(data, algo="sha256"):
    """``{"algo", "hex"}`` record for ``data`` (bytes or an iterable of
    byte chunks)."""
    h = _hasher(algo)
    if h is None:
        raise ValueError("unsupported checksum algorithm %r" % (algo,))
    if isinstance(data, (bytes, bytearray, memoryview)):
        h.update(data)
    else:
        for chunk in data:
            h.update(chunk)
    return {"algo": algo, "hex": h.hexdigest()}


def verify_checksum(data, record, path="<data>"):
    """Check ``data`` against a ``{"algo", "hex"}`` record.

    Returns ``True`` on match, ``None`` when the record is absent or
    uses an unknown algorithm (forward compatibility: skip, don't
    reject).  Raises :class:`ChecksumError` on a mismatch.
    """
    if not record:
        return None
    algo = record.get("algo")
    expected = record.get("hex")
    if not algo or not expected or _hasher(algo) is None:
        return None
    actual = compute_checksum(data, algo)["hex"]
    if actual != expected:
        raise ChecksumError(path, algo, expected, actual)
    return True


# -- JSON payload self-checksums -------------------------------------------

def canonical_json_bytes(payload):
    """The canonical byte encoding checksums are computed over."""
    return json.dumps(payload, separators=(",", ":"),
                      sort_keys=True, default=str).encode("utf-8")


def checksum_payload(payload, algo="sha256"):
    """Digest of a JSON payload, excluding its own checksum field."""
    body = {k: v for k, v in payload.items() if k != CHECKSUM_KEY}
    return compute_checksum(canonical_json_bytes(body), algo)


def attach_checksum(payload, algo="sha256"):
    """Return ``payload`` with its self-checksum stamped in."""
    payload[CHECKSUM_KEY] = checksum_payload(payload, algo)
    return payload


def verify_payload_checksum(payload, path="<payload>"):
    """Verify a payload's self-checksum; same contract as
    :func:`verify_checksum` (None when unchecked, raise on mismatch)."""
    record = payload.get(CHECKSUM_KEY) if isinstance(payload, dict) else None
    if not record:
        return None
    algo = record.get("algo")
    if not algo or _hasher(algo) is None:
        return None
    actual = checksum_payload(payload, algo)["hex"]
    if actual != record.get("hex"):
        raise ChecksumError(path, algo, record.get("hex"), actual)
    return True


# -- atomic writes ---------------------------------------------------------

def atomic_write_bytes(path, data, fsync=True):
    """Write ``data`` to ``path`` via tempfile + rename.

    The temporary file lives in ``path``'s directory so the final
    :func:`os.replace` is a same-filesystem atomic rename.  ``fsync``
    flushes the payload to disk before the rename, closing the
    power-loss window where the rename survives but the data does not.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        prefix=".tmp-" + path.name[:24] + "-", suffix=path.suffix or ".part",
        dir=str(path.parent))
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            if fsync:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            try:
                os.unlink(tmp)
            except OSError:
                pass
    return path


def atomic_write_json(path, payload, indent=2, fsync=True):
    """Atomic, canonical JSON write (sorted keys, trailing newline) —
    the shared implementation behind point files, manifests and
    failure reports."""
    text = json.dumps(payload, indent=indent, sort_keys=True, default=str)
    return atomic_write_bytes(path, (text + "\n").encode("utf-8"),
                              fsync=fsync)
