"""Columnar (structure-of-arrays) trace storage — schema v3 in memory.

Traces are the one interface between the functional emulator and
everything downstream: the timing simulator, the coalescer summary, the
race detectors, the locality analyses and the trace transforms.  At
production scales a launch executes hundreds of millions of warp
instructions, so instead of one Python object per dynamic op this
module stores them as typed NumPy columns:

========= ======= ====================================================
column    dtype   meaning
========= ======= ====================================================
``pc``    uint32  instruction address of the executed op
``mask``  uint32  active-lane mask
``kind``  uint8   access-kind code (:func:`op_kind`); ``KIND_NONE``
                  (0xFF) for ops that recorded no addresses
``acount``uint32  number of per-lane accesses the op recorded
``lanes`` uint8   ragged per-access lane ids (``astart`` offsets)
``addrs`` uint64  ragged per-access byte addresses
``vals``  uint64  ragged stored-value bit patterns (stores only)
========= ======= ====================================================

Producers append into fixed-size chunks (:data:`CHUNK_OPS` ops per
chunk) so peak Python-list overhead is bounded and consumers can stream
(:meth:`ColumnarWarpTrace.iter_chunks`); :meth:`ColumnarWarpTrace.seal`
concatenates the chunks into the final per-warp columns.

The read-only record view (:attr:`ColumnarWarpTrace.ops`) lazily
materializes :class:`~repro.emulator.trace.TraceOp` objects from the
columns, for reference implementations and tests that want one object
per op.

Stored values are kept as 64-bit patterns and decoded through the
instruction's dtype: floats are IEEE-754 binary64 bit images, signed
integers two's-complement (sign-extended from bit 63 on decode),
unsigned integers the raw pattern.  This reproduces exactly the Python
values the engines traced (``_coerce_store`` yields only ``float`` and
``int``).
"""

from __future__ import annotations

import struct
from typing import Dict, List

import numpy as np

from ..ptx.isa import PC_STRIDE
from ..resilience.errors import TraceIntegrityError
from ..resilience.guards import check_memory_budget, columnar_chunk_ops
from .grid import LaunchConfig
from .trace import TraceOp

#: Ops accumulated per producer chunk before conversion to NumPy arrays.
CHUNK_OPS = 65536

#: ``kind`` column sentinel for ops that recorded no addresses.
KIND_NONE = 0xFF

_KIND_LOAD, _KIND_STORE, _KIND_ATOMIC = 0, 1, 2

#: stable wire codes for address spaces (enum order is not wire format)
SPACE_CODES = {"global": 0, "shared": 1, "local": 2, "param": 3,
               "const": 4, "tex": 5}
SPACE_NAMES = {code: name for name, code in SPACE_CODES.items()}

_U64_MASK = (1 << 64) - 1
_PC_SHIFT = PC_STRIDE.bit_length() - 1
assert PC_STRIDE == 1 << _PC_SHIFT, "pc columns assume power-of-two stride"

_pack_d = struct.Struct("<d").pack
_unpack_d = struct.Struct("<d").unpack

#: dtypes of the seven columns, in canonical order (the on-disk format
#: in :mod:`repro.emulator.serialize` serializes them in this order).
COLUMNS = (
    ("pc", np.uint32),
    ("mask", np.uint32),
    ("kind", np.uint8),
    ("acount", np.uint32),
    ("lanes", np.uint8),
    ("addrs", np.uint64),
    ("vals", np.uint64),
)


def op_kind(inst):
    """The schema access-kind code for a memory instruction:
    ``load/store/atomic | space_code << 2``."""
    if inst.is_store:
        k = _KIND_STORE
    elif inst.is_atomic:
        k = _KIND_ATOMIC
    else:
        k = _KIND_LOAD
    space = inst.space.value if inst.space is not None else "global"
    return k | (SPACE_CODES[space] << 2)


def kind_is_store(kind):
    return kind != KIND_NONE and (kind & 3) == _KIND_STORE


def kind_is_load(kind):
    return kind != KIND_NONE and (kind & 3) == _KIND_LOAD


def encode_value(value, is_float):
    """One stored value -> 64-bit pattern (see module docstring)."""
    if is_float:
        return int.from_bytes(_pack_d(value), "little")
    return int(value) & _U64_MASK


def decode_value(bits, dtype):
    """Invert :func:`encode_value` through the instruction dtype."""
    bits = int(bits)
    if dtype.is_float:
        return _unpack_d(bits.to_bytes(8, "little"))[0]
    if dtype.is_signed and bits >> 63:
        return bits - (1 << 64)
    return bits


def take_ragged(flat, starts, counts):
    """Gather ``flat[starts[i]:starts[i]+counts[i]]`` for every row into
    one concatenated array (vectorized ragged take)."""
    counts = np.asarray(counts, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return flat[:0]
    ends = np.cumsum(counts)
    offsets = np.repeat(ends - counts, counts)
    idx = np.repeat(starts, counts) + (np.arange(total) - offsets)
    return flat[idx]


class ColumnarWarpTrace:
    """One warp's ops as typed columns, with a lazy record view.

    Lifecycle: the emulator appends ops while the warp runs (builder
    state, chunked); :meth:`seal` turns the chunks into the final
    columns.  Aggregates and the ``ops`` record view auto-seal.
    """

    __slots__ = ("cta_id", "warp_id", "_launch",
                 "_b_pc", "_b_mask", "_b_kind", "_b_acount",
                 "_b_lane", "_b_addr", "_b_val", "_chunks",
                 "pc", "mask", "kind", "acount", "astart",
                 "lanes", "addrs", "vals", "vstart", "_ops")

    def __init__(self, launch, cta_id, warp_id):
        self.cta_id = cta_id
        self.warp_id = warp_id
        self._launch = launch
        self._b_pc: List[int] = []
        self._b_mask: List[int] = []
        self._b_kind: List[int] = []
        self._b_acount: List[int] = []
        self._b_lane: List[int] = []
        self._b_addr: List[int] = []
        self._b_val: List[int] = []
        self._chunks: List[tuple] = []
        self.pc = None  # sealed columns (None while building)
        self.mask = None
        self.kind = None
        self.acount = None
        self.astart = None
        self.lanes = None
        self.addrs = None
        self.vals = None
        self.vstart = None
        self._ops = None

    @property
    def global_warp_key(self):
        return (self.cta_id, self.warp_id)

    # -- producer side -----------------------------------------------------

    def append(self, inst, active_mask, addresses=None, values=None):
        """Record one executed op (the generic engine-side hook)."""
        pc = inst.pc
        self._b_pc.append(pc)
        self._b_mask.append(active_mask)
        if addresses is None:
            self._b_kind.append(KIND_NONE)
            self._b_acount.append(0)
        else:
            idx = pc >> _PC_SHIFT
            self._b_kind.append(self._launch._kind_of[idx])
            self._b_acount.append(len(addresses))
            lanes = self._b_lane
            addrs = self._b_addr
            for lane, addr in addresses:
                lanes.append(lane)
                addrs.append(addr)
            if values is not None:
                vals = self._b_val
                if self._launch._isfloat_of[idx]:
                    for v in values:
                        vals.append(int.from_bytes(_pack_d(v), "little"))
                else:
                    for v in values:
                        vals.append(int(v) & _U64_MASK)
        if len(self._b_pc) >= self._launch._chunk_ops:
            self._flush()

    def append_run(self, pcs, active_mask):
        """Append consecutive address-less ops sharing one mask (the
        compiled engine's batched fast path)."""
        n = len(pcs)
        self._b_pc.extend(pcs)
        self._b_mask.extend([active_mask] * n)
        self._b_kind.extend([KIND_NONE] * n)
        self._b_acount.extend([0] * n)
        if len(self._b_pc) >= self._launch._chunk_ops:
            self._flush()

    def append_memory(self, pc, active_mask, kind, lanes, addrs,
                      enc_values=None):
        """Append one memory op from pre-split lane/address lists;
        ``enc_values`` must already be 64-bit patterns."""
        self._b_pc.append(pc)
        self._b_mask.append(active_mask)
        self._b_kind.append(kind)
        self._b_acount.append(len(lanes))
        self._b_lane.extend(lanes)
        self._b_addr.extend(addrs)
        if enc_values is not None:
            self._b_val.extend(enc_values)
        if len(self._b_pc) >= self._launch._chunk_ops:
            self._flush()

    def _flush(self):
        check_memory_budget("columnar trace production")
        self._chunks.append((
            np.asarray(self._b_pc, dtype=np.uint32),
            np.asarray(self._b_mask, dtype=np.uint32),
            np.asarray(self._b_kind, dtype=np.uint8),
            np.asarray(self._b_acount, dtype=np.uint32),
            np.asarray(self._b_lane, dtype=np.uint8),
            np.asarray(self._b_addr, dtype=np.uint64),
            np.asarray(self._b_val, dtype=np.uint64),
        ))
        del self._b_pc[:]
        del self._b_mask[:]
        del self._b_kind[:]
        del self._b_acount[:]
        del self._b_lane[:]
        del self._b_addr[:]
        del self._b_val[:]

    def iter_chunks(self):
        """Yield ``(pc, mask, kind, acount, lanes, addrs, vals)`` array
        tuples in production order — the streaming consumer contract
        (each tuple covers at most :data:`CHUNK_OPS` ops)."""
        if self.pc is not None:
            n = len(self.pc)
            step = self._launch._chunk_ops
            for lo in range(0, n, step):
                hi = min(lo + step, n)
                alo, ahi = int(self.astart[lo]), int(self.astart[hi])
                vlo, vhi = int(self.vstart[lo]), int(self.vstart[hi])
                yield (self.pc[lo:hi], self.mask[lo:hi], self.kind[lo:hi],
                       self.acount[lo:hi], self.lanes[alo:ahi],
                       self.addrs[alo:ahi], self.vals[vlo:vhi])
            return
        self._flush()
        for chunk in self._chunks:
            yield chunk

    def seal(self, _columns=None):
        """Finalize the columns; idempotent.  ``_columns`` lets the
        deserializer install pre-built (memory-mapped) arrays."""
        if self.pc is not None:
            return self
        if _columns is not None:
            (self.pc, self.mask, self.kind, self.acount,
             self.lanes, self.addrs, self.vals) = _columns
        else:
            self._flush()
            chunks = self._chunks
            cols = [np.concatenate([c[i] for c in chunks])
                    for i in range(len(COLUMNS))]
            self._chunks = []
            (self.pc, self.mask, self.kind, self.acount,
             self.lanes, self.addrs, self.vals) = cols
        self.astart = _exclusive_offsets(self.acount)
        self.vstart = _exclusive_offsets(self._value_counts())
        if int(self.astart[-1]) != len(self.lanes):
            raise TraceIntegrityError(
                "corrupt trace: address table length %d does not match "
                "per-op counts (%d)" % (len(self.lanes),
                                        int(self.astart[-1])))
        if int(self.vstart[-1]) != len(self.vals):
            raise TraceIntegrityError(
                "corrupt trace: value table length %d does not match "
                "store counts (%d)" % (len(self.vals),
                                       int(self.vstart[-1])))
        return self

    def _value_counts(self):
        """Per-op stored-value counts (stores record ``vector`` values
        per recorded lane access; everything else records none)."""
        if len(self.pc) == 0:
            return np.zeros(0, dtype=np.uint32)
        is_store = (self.kind & 3) == _KIND_STORE
        vec = self._launch._vec_by_idx[self.pc >> _PC_SHIFT]
        return np.where(is_store, self.acount * vec, 0).astype(np.uint32)

    # -- consumer side -----------------------------------------------------

    @property
    def ops(self):
        """Read-only record view: a list of :class:`TraceOp` (lazy)."""
        if self._ops is None:
            self._ops = self._materialize()
        return self._ops

    def _materialize(self):
        self.seal()
        launch = self._launch
        insts = launch._insts
        pcs = self.pc.tolist()
        masks = self.mask.tolist()
        kinds = self.kind.tolist()
        astart = self.astart.tolist()
        vstart = self.vstart.tolist()
        lanes = self.lanes.tolist()
        addrs = self.addrs.tolist()
        vals = self.vals.tolist()
        ops = []
        for i, pc in enumerate(pcs):
            inst = insts[pc >> _PC_SHIFT]
            kind = kinds[i]
            if kind == KIND_NONE:
                ops.append(TraceOp(inst, masks[i]))
                continue
            lo, hi = astart[i], astart[i + 1]
            addresses = tuple(zip(lanes[lo:hi], addrs[lo:hi]))
            values = None
            if (kind & 3) == _KIND_STORE:
                dtype = inst.dtype
                values = tuple(decode_value(v, dtype)
                               for v in vals[vstart[i]:vstart[i + 1]])
            ops.append(TraceOp(inst, masks[i], addresses, values))
        return ops

    def __len__(self):
        if self.pc is not None:
            return len(self.pc)
        return (len(self._b_pc)
                + sum(len(c[0]) for c in self._chunks))

    def __iter__(self):
        return iter(self.ops)


def _exclusive_offsets(counts):
    """``[0, c0, c0+c1, ...]`` — length ``len(counts)+1`` (uint64)."""
    out = np.zeros(len(counts) + 1, dtype=np.uint64)
    np.cumsum(counts, out=out[1:])
    return out


class ColumnarLaunchTrace:
    """The complete trace of one kernel launch, stored as columns.

    ``warps`` holds one :class:`ColumnarWarpTrace` per traced warp in
    (CTA, warp) launch order; the aggregate methods are the Table I
    columns, and :meth:`memory_table` is the launch-wide view of its
    memory ops.
    """

    def __init__(self, kernel_name, config: LaunchConfig, instructions,
                 shared_size=0):
        self.kernel_name = kernel_name
        self.config = config
        self.shared_size = shared_size
        self.warps: List[ColumnarWarpTrace] = []
        insts = list(instructions)
        for i, inst in enumerate(insts):
            if inst.pc != i * PC_STRIDE:
                raise ValueError(
                    "instruction table violates the pc-stride invariant "
                    "at index %d (pc %#x)" % (i, inst.pc))
        self._insts = insts
        # Producer/consumer chunk granularity; REPRO_COLUMNAR_CHUNK_OPS
        # can lower it (never raise it past CHUNK_OPS, the iter_chunks
        # contract) to bound staging-buffer memory on the large tier.
        self._chunk_ops = columnar_chunk_ops(CHUNK_OPS)
        self._kind_of = [op_kind(inst) if inst.is_memory else KIND_NONE
                         for inst in insts]
        self._isfloat_of = [bool(inst.dtype is not None
                                 and inst.dtype.is_float) for inst in insts]
        self._vec_by_idx = np.asarray(
            [max(inst.vector, 1) for inst in insts] or [1], dtype=np.uint8)
        self._is_global_load = np.asarray(
            [inst.is_global_load for inst in insts] or [False],
            dtype=np.bool_)
        self._is_shared_load = np.asarray(
            [inst.is_shared_load for inst in insts] or [False],
            dtype=np.bool_)

    def instruction_at(self, pc):
        return self._insts[pc >> _PC_SHIFT]

    @property
    def instructions(self):
        return self._insts

    def new_warp(self, cta_id, warp_id):
        """A fresh warp builder (the caller decides whether it joins
        :attr:`warps` — mirrors how the emulator honours
        ``record_trace=False``)."""
        return ColumnarWarpTrace(self, cta_id, warp_id)

    def seal(self):
        for warp in self.warps:
            warp.seal()
        return self

    # -- aggregate statistics (Table I columns) ---------------------------

    def total_warp_instructions(self):
        return sum(len(w) for w in self.warps)

    def total_thread_instructions(self):
        total = 0
        for w in self.warps:
            w.seal()
            if len(w.mask):
                total += int(np.bitwise_count(w.mask).sum(dtype=np.int64))
        return total

    def count_ops(self, predicate):
        return sum(1 for w in self.warps for op in w.ops if predicate(op))

    def _count_flagged(self, flags):
        total = 0
        for w in self.warps:
            w.seal()
            if len(w.pc):
                total += int(flags[w.pc >> _PC_SHIFT].sum(dtype=np.int64))
        return total

    def global_load_warp_count(self):
        return self._count_flagged(self._is_global_load)

    def shared_load_warp_count(self):
        return self._count_flagged(self._is_shared_load)

    def dynamic_counts_by_pc(self, only_global_loads=True):
        counts: Dict[int, int] = {}
        for w in self.warps:
            w.seal()
            pcs = w.pc
            if only_global_loads and len(pcs):
                pcs = pcs[self._is_global_load[pcs >> _PC_SHIFT]]
            if not len(pcs):
                continue
            uniq, cnt = np.unique(pcs, return_counts=True)
            for p, c in zip(uniq.tolist(), cnt.tolist()):
                counts[p] = counts.get(p, 0) + c
        return counts

    def memory_table(self, space=None, loads_only=False):
        """Columnar view of the launch's memory ops, concatenated over
        warps.  Returns ``None`` when the launch recorded no matching op,
        else a dict of equal-length per-op arrays — ``warp`` (index into
        :attr:`warps`), ``pc``, ``mask``, ``kind``, ``acount``,
        ``astart`` — plus the ragged ``lanes``/``addrs`` tables the
        ``astart``/``acount`` pairs slice into.

        ``space`` is a :class:`repro.ptx.isa.Space` (or its string
        value); ``loads_only`` keeps plain loads (no stores/atomics).
        """
        space_code = None
        if space is not None:
            space_code = SPACE_CODES[getattr(space, "value", space)]
        per_warp = []
        for w_idx, w in enumerate(self.warps):
            w.seal()
            kinds = w.kind
            keep = kinds != KIND_NONE
            if loads_only:
                keep &= (kinds & 3) == _KIND_LOAD
            if space_code is not None:
                keep &= (kinds >> 2) == space_code
            if not keep.any():
                continue
            rows = np.flatnonzero(keep)
            acount = w.acount[rows]
            lanes = take_ragged(w.lanes, w.astart[rows], acount)
            addrs = take_ragged(w.addrs, w.astart[rows], acount)
            per_warp.append({
                "warp": np.full(len(rows), w_idx, dtype=np.int64),
                "pc": w.pc[rows],
                "mask": w.mask[rows],
                "kind": kinds[rows],
                "acount": acount,
                "lanes": lanes,
                "addrs": addrs,
            })
        if not per_warp:
            return None
        table = {key: np.concatenate([p[key] for p in per_warp])
                 for key in per_warp[0]}
        table["astart"] = _exclusive_offsets(table["acount"])[:-1]
        return table

    def __iter__(self):
        return iter(self.warps)


def rewrite_global_loads(launch, pcs, rewrite):
    """A sealed copy of ``launch`` with its global loads at ``pcs``
    rewritten.

    Each row of such a load that recorded at least one access is handed
    to ``rewrite`` as a :class:`TraceOp`; the ops it returns (same
    instruction, new masks and addresses) take the row's place.  Every
    other row is copied column-wise.  The :mod:`repro.optim` trace
    transforms build on this.
    """
    out = ColumnarLaunchTrace(launch.kernel_name, launch.config,
                              launch.instructions,
                              shared_size=launch.shared_size)
    insts = out.instructions
    target = np.asarray(
        [inst.is_global_load and inst.pc in pcs for inst in insts]
        or [False], dtype=np.bool_)
    for warp in launch.warps:
        warp.seal()
        rows = np.flatnonzero(target[warp.pc >> _PC_SHIFT]
                              & (warp.acount > 0))
        parts_per_row = []
        masks, acounts, lanes, addrs = [], [], [], []
        for row in rows.tolist():
            pc = int(warp.pc[row])
            a0, a1 = int(warp.astart[row]), int(warp.astart[row + 1])
            parts = rewrite(TraceOp(
                insts[pc >> _PC_SHIFT], int(warp.mask[row]),
                tuple(zip(warp.lanes[a0:a1].tolist(),
                          warp.addrs[a0:a1].tolist()))))
            parts_per_row.append(len(parts))
            for part in parts:
                masks.append(part.active_mask)
                acounts.append(len(part.addresses))
                for lane, addr in part.addresses:
                    lanes.append(lane)
                    addrs.append(addr)
        new = out.new_warp(warp.cta_id, warp.warp_id)
        new.seal(_columns=_splice_rows(warp, rows, parts_per_row, masks,
                                       acounts, lanes, addrs))
        out.warps.append(new)
    return out


def _splice_rows(warp, rows, parts_per_row, masks, acounts, lanes, addrs):
    """``warp``'s columns with each of ``rows`` replaced by
    ``parts_per_row[i]`` new load rows (``masks``/``acounts`` per new
    row, ``lanes``/``addrs`` concatenated); every other row is copied.
    Loads carry no stored values, so the value column is unchanged."""
    n = len(warp.pc)
    per_row = np.ones(n, dtype=np.int64)
    per_row[rows] = parts_per_row
    replaced = np.zeros(n, dtype=np.bool_)
    replaced[rows] = True
    src = np.repeat(np.arange(n, dtype=np.int64), per_row)
    fresh = np.repeat(replaced, per_row)
    mask = warp.mask[src]
    mask[fresh] = masks
    acount = warp.acount[src]
    acount[fresh] = acounts
    # gather each output row's accesses from the old tables followed by
    # the new ones
    start = warp.astart[:-1][src].astype(np.int64)
    start[fresh] = len(warp.lanes) + _exclusive_offsets(
        np.asarray(acounts, dtype=np.int64))[:-1].astype(np.int64)
    pool_lanes = np.concatenate([warp.lanes,
                                 np.asarray(lanes, dtype=np.uint8)])
    pool_addrs = np.concatenate([warp.addrs,
                                 np.asarray(addrs, dtype=np.uint64)])
    return (warp.pc[src], mask, warp.kind[src], acount,
            take_ragged(pool_lanes, start, acount),
            take_ragged(pool_addrs, start, acount), warp.vals)
