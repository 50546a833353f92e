"""Trace (de)serialization: save an application run, replay it later.

Emulation is the expensive step of the pipeline; serializing a
:class:`WorkloadRun`'s traces lets downstream tooling (or a later
session) re-run timing experiments without re-executing the kernels —
the classic trace-driven-simulator workflow GPGPU-Sim users know.

Format (schema v3): a zero-copy columnar container.  The file is

* an 8-byte magic (:data:`MAGIC`),
* a little-endian ``uint32`` header length,
* a compact JSON header (version, application name, printed PTX-subset
  kernel text, and per-launch metadata: geometry, per-warp op counts and
  per-launch column lengths), then
* the raw little-endian column arrays of every launch, each aligned to
  :data:`ALIGN` bytes, in a canonical order derived from the header.

The column arrays are the sealed launch's own columns
(:class:`~repro.emulator.columnar.ColumnarLaunchTrace`), so saving
writes them as they are, and loading memory-maps the file and hands the
mapped arrays with the header's per-warp op counts to the same
``seal`` a produced launch goes through: one set of integrity checks,
and each warp gets *views* into the map — no per-record parsing, no
copies; a 100×-scale trace opens in milliseconds.  The kernels travel
along as printed PTX-subset text (the printer/parser roundtrip is
classification-preserving, see ``tests/ptx/test_printer.py``), so a
loaded file is fully self-contained: kernels, classifications and
traces.  A caller that already holds the kernels (the trace cache's)
passes them in and the stored text is only compared, not parsed.

v3 is the only format: a file that does not start with the magic and
a v3 header is rejected as corrupt (the trace cache quarantines it and
re-emulates).

The container is byte-deterministic — it has no timestamps, so
identical runs serialize to identical files.  The trace cache and the
engine differential tests rely on this.
"""

from __future__ import annotations

import json
import mmap
from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..core import ClassificationResult, classify_kernel
from ..ptx import Module, parse_module, print_module
from ..resilience.artifacts import compute_checksum, verify_checksum
from .columnar import COLUMNS, ColumnarLaunchTrace, kernel_table
from .grid import Dim3, LaunchConfig
from .trace import ApplicationTrace

#: Schema v3 stores traces as typed columns in a memory-mappable
#: container (see module docstring).
FORMAT_VERSION = 3

MAGIC = b"REPROTRC"
ALIGN = 64


def _align(n):
    return (n + ALIGN - 1) // ALIGN * ALIGN


def _launch_header_and_columns(launch):
    """One launch's header metadata and its sealed columns, as they
    are."""
    launch.seal()
    arrays = {name: getattr(launch, name) for name, _ in COLUMNS}
    header = {
        "kernel": launch.kernel_name,
        "grid": list(launch.config.grid),
        "block": list(launch.config.block),
        "shared_size": launch.shared_size,
        "warps": [[w.cta_id, w.warp_id, len(w.pc)] for w in launch.warps],
        "columns": {name: len(arrays[name]) for name, _ in COLUMNS},
    }
    return header, arrays


def _source_lines(module):
    """Per-kernel source-line numbers, in instruction order.

    ``Instruction.line`` points into the text the module was *parsed*
    from.  The payload stores the canonical ``print_module`` text, so a
    re-parse on load would silently re-number every instruction against
    the printed layout — and diagnostics (``repro advise``) would report
    different PTX lines on a trace-cache hit than on a fresh run.
    Persisting the original numbers keeps load_run a faithful inverse.
    """
    return {k.name: [inst.line for inst in k.instructions]
            for k in module}


def _restamp_lines(module, payload):
    """Restore saved source-line numbers onto a re-parsed module.

    Best effort: entries written before the ``lines`` field existed
    (or whose instruction counts disagree) keep the printed-text
    numbering rather than failing the load.
    """
    for kernel in module:
        lines = payload.get("lines", {}).get(kernel.name)
        if lines is None or len(lines) != len(kernel.instructions):
            continue
        for inst, line in zip(kernel.instructions, lines):
            inst.line = int(line)


def save_run(run, path, ptx=None):
    """Serialize a run's kernels and traces to ``path`` (schema v3).

    ``ptx`` is ``print_module(run.module)`` when the caller already
    has it (the trace cache does: the text is part of its key).
    """
    module = run.module
    launches = []
    blobs = []
    for launch in run.trace:
        header, arrays = _launch_header_and_columns(launch)
        launches.append(header)
        # each column's bytes, hashed and written without a copy
        blobs.extend(memoryview(np.ascontiguousarray(arrays[name],
                                                     dtype=dt)).cast("B")
                     for name, dt in COLUMNS)
    payload = {
        "version": FORMAT_VERSION,
        "name": run.trace.name,
        "ptx": print_module(module) if ptx is None else ptx,
        "lines": _source_lines(module),
        "launches": launches,
        # digest of the column payload (blob bytes in canonical order,
        # padding excluded — so it is independent of the header length)
        "checksum": compute_checksum(blobs),
    }
    head = json.dumps(payload, separators=(",", ":"),
                      sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(len(head).to_bytes(4, "little"))
        fh.write(head)
        pos = len(MAGIC) + 4 + len(head)
        for blob in blobs:
            pad = _align(pos) - pos
            fh.write(b"\0" * pad)
            fh.write(blob)
            pos += pad + len(blob)
    return path


@dataclass
class LoadedRun:
    """A deserialized run: kernels, classifications and traces."""

    name: str
    module: Module
    trace: ApplicationTrace
    classifications: Dict[str, ClassificationResult]


def load_run(path, module=None, ptx=None):
    """Load a file written by :func:`save_run`.

    Without ``module`` the stored PTX is parsed and its saved source
    lines restored.  A caller that already parsed the kernels passes
    the :class:`Module` and its printed text ``ptx``; the loaded run
    then shares that module (and its source lines), and a file whose
    stored text differs from ``ptx`` is rejected as corrupt.
    """
    with open(path, "rb") as fh:
        head = fh.read(len(MAGIC))
        if len(head) < len(MAGIC):
            # EOFError, not ValueError: a near-empty file is a torn
            # write, which the trace cache retries before quarantining
            raise EOFError("truncated trace file: short magic")
        if head != MAGIC:
            raise ValueError(
                "unsupported trace-file version: %r is not a v%d "
                "container" % (head[:8], FORMAT_VERSION))
        length_bytes = fh.read(4)
        if len(length_bytes) < 4:
            # EOFError: short streams are possibly a racing reader and
            # retried by the trace cache before being called corrupt
            raise EOFError("truncated trace file: missing header length")
        hlen = int.from_bytes(length_bytes, "little")
        head_json = fh.read(hlen)
        if len(head_json) < hlen:
            raise EOFError("truncated trace file: short header")
        payload = json.loads(head_json.decode("utf-8"))
        if payload.get("version") != FORMAT_VERSION:
            raise ValueError("unsupported trace-file version: %r"
                             % payload.get("version"))
        if module is not None and payload.get("ptx") != (
                print_module(module) if ptx is None else ptx):
            raise ValueError("stored PTX differs from the caller's module")
        fh.seek(0)
        buf = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)

    _verify_container(buf, payload, hlen, path)

    if module is None:
        module = parse_module(payload["ptx"])
        _restamp_lines(module, payload)
    classifications = {k.name: classify_kernel(k) for k in module}
    app = ApplicationTrace(name=payload["name"])
    pos = len(MAGIC) + 4 + hlen
    for launch_data in payload["launches"]:
        kernel = module[launch_data["kernel"]]
        config = LaunchConfig(grid=Dim3(*launch_data["grid"]),
                              block=Dim3(*launch_data["block"]))
        launch = ColumnarLaunchTrace(
            kernel_name=kernel.name, config=config,
            instructions=kernel_table(kernel),
            shared_size=launch_data["shared_size"])
        columns = []
        counts = launch_data["columns"]
        for name, dt in COLUMNS:
            pos = _align(pos)
            count = int(counts[name])
            nbytes = count * np.dtype(dt).itemsize
            if pos + nbytes > len(buf):
                raise EOFError(
                    "truncated trace file: column %r of launch %r ends "
                    "beyond EOF" % (name, kernel.name))
            if count:
                columns.append(np.frombuffer(buf, dtype=dt, count=count,
                                             offset=pos))
            else:
                columns.append(np.zeros(0, dtype=dt))
            pos += nbytes
        app.add(launch.seal(columns, launch_data["warps"]))
    return LoadedRun(name=payload["name"], module=module,
                     trace=app, classifications=classifications)


def _verify_container(buf, payload, hlen, path):
    """Check the header's column checksum against the mapped bytes.

    Hashes each column's blob region (padding excluded) in the same
    canonical order :func:`save_run` wrote them.  Containers without a
    checksum record (older writers) are accepted unchanged; a mismatch
    raises :class:`~repro.resilience.artifacts.ChecksumError`, which the
    trace cache treats as corruption (quarantine + regenerate).
    """
    record = payload.get("checksum")
    if not record:
        return

    def _blob_regions():
        pos = len(MAGIC) + 4 + hlen
        for launch_data in payload["launches"]:
            counts = launch_data["columns"]
            for name, dt in COLUMNS:
                pos = _align(pos)
                nbytes = int(counts[name]) * np.dtype(dt).itemsize
                if pos + nbytes > len(buf):
                    raise EOFError(
                        "truncated trace file: column %r ends beyond EOF"
                        % name)
                yield buf[pos:pos + nbytes]
                pos += nbytes

    verify_checksum(_blob_regions(), record, path)
