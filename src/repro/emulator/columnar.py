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

The sealed :class:`ColumnarLaunchTrace` owns one set of these columns,
its warps' rows one after another in (CTA, warp) order; the on-disk
container (:mod:`repro.emulator.serialize`) stores exactly these
arrays.  While a warp runs, its :class:`ColumnarWarpTrace` appends into
Python staging lists.  :meth:`ColumnarLaunchTrace.seal` turns every
warp's lists into arrays, copies those into the launch columns, checks
the schema invariants once, and gives each warp its rows as views with
per-warp offsets.  A loaded or rewritten launch hands its ready columns
to the same ``seal``.

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
from typing import List

import numpy as np

from ..ptx.isa import PC_STRIDE
from ..resilience.errors import TraceIntegrityError
from ..resilience.guards import check_memory_budget
from .grid import LaunchConfig
from .trace import TraceOp

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
    """One warp's ops: staging lists while the warp runs, then its rows
    of the sealed launch's columns, with a lazy record view.

    After :meth:`ColumnarLaunchTrace.seal`, ``pc`` ... ``vals`` are
    views of the launch columns, ``base`` is the launch row of the
    warp's first op, and :attr:`astart`/:attr:`vstart` index the warp's
    own ``lanes``/``addrs`` and ``vals``.
    """

    __slots__ = ("cta_id", "warp_id", "_launch",
                 "_b_pc", "_b_mask", "_b_kind", "_b_acount",
                 "_b_lane", "_b_addr", "_b_val",
                 "base", "pc", "mask", "kind", "acount",
                 "lanes", "addrs", "vals", "_ops")

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
        self.base = None  # sealed state (None while building)
        self.pc = None
        self.mask = None
        self.kind = None
        self.acount = None
        self.lanes = None
        self.addrs = None
        self.vals = None
        self._ops = None

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

    def append_run(self, pcs, active_mask):
        """Append consecutive address-less ops sharing one mask (the
        compiled engine's batched fast path)."""
        n = len(pcs)
        self._b_pc.extend(pcs)
        self._b_mask.extend([active_mask] * n)
        self._b_kind.extend([KIND_NONE] * n)
        self._b_acount.extend([0] * n)

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

    def _take_staged(self):
        """The staging lists as the seven column arrays; the lists are
        cleared."""
        check_memory_budget("columnar trace production")
        arrays = (
            np.asarray(self._b_pc, dtype=np.uint32),
            np.asarray(self._b_mask, dtype=np.uint32),
            np.asarray(self._b_kind, dtype=np.uint8),
            np.asarray(self._b_acount, dtype=np.uint32),
            np.asarray(self._b_lane, dtype=np.uint8),
            np.asarray(self._b_addr, dtype=np.uint64),
            np.asarray(self._b_val, dtype=np.uint64),
        )
        del self._b_pc[:]
        del self._b_mask[:]
        del self._b_kind[:]
        del self._b_acount[:]
        del self._b_lane[:]
        del self._b_addr[:]
        del self._b_val[:]
        return arrays

    # -- consumer side -----------------------------------------------------

    @property
    def astart(self):
        """Per-op offsets into :attr:`lanes`/:attr:`addrs`,
        ``[0, a0, a0+a1, ...]`` (length ``len(pc) + 1``)."""
        return _rebased(self._launch.astart, self.base, len(self.pc))

    @property
    def vstart(self):
        """Per-op offsets into :attr:`vals` (length ``len(pc) + 1``)."""
        return _rebased(self._launch.vstart, self.base, len(self.pc))

    @property
    def ops(self):
        """Read-only record view: a list of :class:`TraceOp` (lazy)."""
        if self._ops is None:
            self._ops = self._materialize()
        return self._ops

    def _materialize(self):
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
        return len(self._b_pc)

    def __iter__(self):
        return iter(self.ops)


def _exclusive_offsets(counts):
    """``[0, c0, c0+c1, ...]`` — length ``len(counts)+1`` (uint64)."""
    out = np.zeros(len(counts) + 1, dtype=np.uint64)
    np.cumsum(counts, out=out[1:])
    return out


def _rebased(offsets, lo, n):
    """``offsets[lo:lo+n+1]`` shifted to start at zero."""
    window = offsets[lo:lo + n + 1]
    return window - window[0]


class InstructionTable:
    """The per-instruction facts a launch's columns are read through,
    indexed by ``pc >> _PC_SHIFT``.  They depend on the kernel alone,
    so :func:`kernel_table` builds them once per kernel and every
    launch of it shares them."""

    __slots__ = ("insts", "kind_of", "isfloat_of", "vec_by_idx",
                 "access_bytes", "is_global_load", "is_shared_load")

    def __init__(self, instructions):
        insts = (instructions if isinstance(instructions, list)
                 else list(instructions))
        for i, inst in enumerate(insts):
            if inst.pc != i * PC_STRIDE:
                raise ValueError(
                    "instruction table violates the pc-stride invariant "
                    "at index %d (pc %#x)" % (i, inst.pc))
        self.insts = insts
        self.kind_of = [op_kind(inst) if inst.is_memory else KIND_NONE
                        for inst in insts]
        self.isfloat_of = [bool(inst.dtype is not None
                                and inst.dtype.is_float) for inst in insts]
        self.vec_by_idx = np.asarray(
            [max(inst.vector, 1) for inst in insts] or [1], dtype=np.uint8)
        self.access_bytes = np.asarray(
            [inst.access_bytes if inst.is_memory else 0 for inst in insts]
            or [0], dtype=np.int64)
        self.is_global_load = np.asarray(
            [inst.is_global_load for inst in insts] or [False],
            dtype=np.bool_)
        self.is_shared_load = np.asarray(
            [inst.is_shared_load for inst in insts] or [False],
            dtype=np.bool_)


def _table_of(kernel):
    return InstructionTable(kernel.instructions)


def kernel_table(kernel):
    """``kernel``'s :class:`InstructionTable`, built on first use and
    held by the kernel (:meth:`~repro.ptx.module.Kernel.fact`)."""
    return kernel.fact(_table_of)


class ColumnarLaunchTrace:
    """The complete trace of one kernel launch, stored as columns.

    ``warps`` holds one :class:`ColumnarWarpTrace` per traced warp in
    (CTA, warp) launch order.  Once sealed, the launch owns the seven
    :data:`COLUMNS` (every warp's rows, in warp order), ``op_start``
    (the row of each warp's first op, then the row count) and the
    ragged-table offsets ``astart``/``vstart`` (length rows + 1); the
    aggregate methods are the Table I columns.
    """

    def __init__(self, kernel_name, config: LaunchConfig, instructions,
                 shared_size=0):
        self.kernel_name = kernel_name
        self.config = config
        self.shared_size = shared_size
        self.warps: List[ColumnarWarpTrace] = []
        # ``instructions`` is a kernel's shared InstructionTable
        # (:func:`kernel_table`) or a plain instruction list
        table = (instructions if isinstance(instructions, InstructionTable)
                 else InstructionTable(instructions))
        self._table = table
        self._insts = table.insts
        self._kind_of = table.kind_of
        self._isfloat_of = table.isfloat_of
        self._vec_by_idx = table.vec_by_idx
        #: bytes each lane of an instruction moves, indexed by
        #: ``pc >> _PC_SHIFT`` (0 for non-memory instructions).
        self.access_bytes = table.access_bytes
        self._is_global_load = table.is_global_load
        self._is_shared_load = table.is_shared_load
        self.pc = None  # sealed columns (None while building)
        self.mask = None
        self.kind = None
        self.acount = None
        self.lanes = None
        self.addrs = None
        self.vals = None
        self.op_start = None
        self.astart = None
        self.vstart = None

    def instruction_at(self, pc):
        return self._insts[pc >> _PC_SHIFT]

    @property
    def instructions(self):
        """The kernel's instruction list; every launch of one kernel
        object shares it."""
        return self._insts

    def new_warp(self, cta_id, warp_id):
        """A fresh warp builder, appended to :attr:`warps`."""
        warp = ColumnarWarpTrace(self, cta_id, warp_id)
        self.warps.append(warp)
        return warp

    def seal(self, columns=None, layout=None):
        """Make the launch the owner of its columns; idempotent.

        Without arguments the recorded warps' staging lists are copied
        into the launch columns (see :meth:`_drain_warps`).  A
        loader or a trace rewrite instead passes ``columns``, the seven
        arrays in :data:`COLUMNS` order, and ``layout``, one
        ``(cta_id, warp_id, ops)`` per warp, which replaces
        :attr:`warps`.  Either way the schema invariants are checked
        here, once, and each warp gets its rows as views.
        """
        if self.pc is not None:
            return self
        if columns is None:
            counts = [len(w) for w in self.warps]
            columns = self._drain_warps()
        else:
            self.warps = [ColumnarWarpTrace(self, int(cta), int(warp))
                          for cta, warp, _ops in layout]
            counts = [int(ops) for _cta, _warp, ops in layout]
        (self.pc, self.mask, self.kind, self.acount,
         self.lanes, self.addrs, self.vals) = columns
        n = len(self.pc)
        self.op_start = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(np.asarray(counts, dtype=np.int64),
                  out=self.op_start[1:])
        if int(self.op_start[-1]) != n or any(
                len(col) != n for col in (self.mask, self.kind,
                                          self.acount)):
            raise TraceIntegrityError(
                "corrupt trace: per-warp op counts do not cover the "
                "columns of launch %r" % self.kernel_name)
        if n:
            self._check_kinds()
        self.astart = _exclusive_offsets(self.acount)
        self.vstart = _exclusive_offsets(self._value_counts())
        if int(self.astart[-1]) != len(self.lanes) \
                or len(self.addrs) != len(self.lanes):
            raise TraceIntegrityError(
                "corrupt trace: address table length %d does not match "
                "per-op counts (%d)" % (len(self.lanes),
                                        int(self.astart[-1])))
        if int(self.vstart[-1]) != len(self.vals):
            raise TraceIntegrityError(
                "corrupt trace: value table length %d does not match "
                "store counts (%d)" % (len(self.vals),
                                       int(self.vstart[-1])))
        rows = self.op_start.tolist()
        a = self.astart[self.op_start].tolist()
        v = self.vstart[self.op_start].tolist()
        for i, warp in enumerate(self.warps):
            lo, hi = rows[i], rows[i + 1]
            warp.base = lo
            warp.pc = self.pc[lo:hi]
            warp.mask = self.mask[lo:hi]
            warp.kind = self.kind[lo:hi]
            warp.acount = self.acount[lo:hi]
            warp.lanes = self.lanes[a[i]:a[i + 1]]
            warp.addrs = self.addrs[a[i]:a[i + 1]]
            warp.vals = self.vals[v[i]:v[i + 1]]
        return self

    def _drain_warps(self):
        """The seven launch columns, filled from every warp's staging
        lists in warp order.  Each warp's lists become arrays (and are
        cleared) first, then each warp's arrays are dropped once copied,
        so the lists and the columns are never alive together."""
        parts = [warp._take_staged() for warp in self.warps]
        parts.reverse()  # popped from the end, in warp order
        columns = [np.empty(sum(len(p[i]) for p in parts), dtype=dt)
                   for i, (_name, dt) in enumerate(COLUMNS)]
        pos = [0] * len(COLUMNS)
        while parts:
            for i, arr in enumerate(parts.pop()):
                columns[i][pos[i]:pos[i] + len(arr)] = arr
                pos[i] += len(arr)
        return columns

    def _check_kinds(self):
        """The kind column is redundant with the instructions, so a
        mismatch means corruption."""
        idx = self.pc >> _PC_SHIFT
        if int(idx.max()) >= len(self._insts):
            raise TraceIntegrityError(
                "corrupt trace: pc %#x beyond kernel %r"
                % (int(self.pc.max()), self.kernel_name))
        expect = np.asarray(self._kind_of, dtype=np.uint8)[idx]
        kind = self.kind
        # ops that recorded no addresses legitimately carry KIND_NONE
        # even for memory instructions (param reads); predicated-off
        # accesses trace addresses=() instead, and the kind stays
        bad = (kind != expect) & (kind != KIND_NONE)
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise TraceIntegrityError(
                "corrupt trace: access kind %d at pc %#x does not match "
                "instruction %s"
                % (int(kind[i]), int(self.pc[i]),
                   self._insts[int(idx[i])].mnemonic()))
        # a memory op that recorded addresses but claims KIND_NONE would
        # silently drop its accesses: reject
        dropped = (kind == KIND_NONE) & (self.acount != 0)
        if dropped.any():
            raise TraceIntegrityError(
                "corrupt trace: access kind missing at pc %#x"
                % int(self.pc[int(np.flatnonzero(dropped)[0])]))

    def _value_counts(self):
        """Per-op stored-value counts (stores record ``vector`` values
        per recorded lane access; everything else records none)."""
        if not len(self.pc):
            return np.zeros(0, dtype=np.uint32)
        is_store = (self.kind & 3) == _KIND_STORE
        vec = self._vec_by_idx[self.pc >> _PC_SHIFT]
        return np.where(is_store, self.acount * vec, 0).astype(np.uint32)

    # -- aggregate statistics (Table I columns) ---------------------------

    def total_warp_instructions(self):
        return len(self.seal().pc)

    def total_thread_instructions(self):
        return int(np.bitwise_count(self.seal().mask).sum(dtype=np.int64))

    def global_load_warp_count(self):
        return self._count_flagged(self._is_global_load)

    def shared_load_warp_count(self):
        return self._count_flagged(self._is_shared_load)

    def _count_flagged(self, flags):
        return int(flags[self.seal().pc >> _PC_SHIFT].sum(dtype=np.int64))

    def dynamic_counts_by_pc(self):
        """``{pc: executions}`` of the launch's global loads."""
        pcs = self.seal().pc
        pcs, counts = np.unique(pcs[self._is_global_load[pcs >> _PC_SHIFT]],
                                return_counts=True)
        return dict(zip(pcs.tolist(), counts.tolist()))

    def __iter__(self):
        return iter(self.warps)


def rewrite_global_loads(launch, pcs, rewrite):
    """A sealed copy of ``launch`` with its global loads at ``pcs``
    rewritten.

    Each row of such a load that recorded at least one access is handed
    to ``rewrite`` as a :class:`TraceOp`; the ops it returns (same
    instruction, new masks and addresses) take the row's place in its
    warp.  Every other row is copied column-wise.  The
    :mod:`repro.optim` trace transforms build on this.
    """
    launch.seal()
    insts = launch.instructions
    target = np.asarray(
        [inst.is_global_load and inst.pc in pcs for inst in insts]
        or [False], dtype=np.bool_)
    rows = np.flatnonzero(target[launch.pc >> _PC_SHIFT]
                          & (launch.acount > 0))
    per_row = np.ones(len(launch.pc), dtype=np.int64)
    masks, acounts, lanes, addrs = [], [], [], []
    astart = launch.astart
    for row in rows.tolist():
        pc = int(launch.pc[row])
        a0, a1 = int(astart[row]), int(astart[row + 1])
        parts = rewrite(TraceOp(
            insts[pc >> _PC_SHIFT], int(launch.mask[row]),
            tuple(zip(launch.lanes[a0:a1].tolist(),
                      launch.addrs[a0:a1].tolist()))))
        per_row[row] = len(parts)
        for part in parts:
            masks.append(part.active_mask)
            acounts.append(len(part.addresses))
            for lane, addr in part.addresses:
                lanes.append(lane)
                addrs.append(addr)
    # each warp's new op count: its rows' output rows
    ops = np.diff(_exclusive_offsets(per_row)[launch.op_start]).tolist()
    out = ColumnarLaunchTrace(launch.kernel_name, launch.config,
                              launch._table, shared_size=launch.shared_size)
    return out.seal(
        _splice_rows(launch, rows, per_row, masks, acounts, lanes, addrs),
        [(w.cta_id, w.warp_id, n) for w, n in zip(launch.warps, ops)])


def _splice_rows(launch, rows, per_row, masks, acounts, lanes, addrs):
    """``launch``'s columns with each of ``rows`` replaced by
    ``per_row[row]`` new load rows (``masks``/``acounts`` per new row,
    ``lanes``/``addrs`` concatenated); every other row is copied.
    Loads carry no stored values, so the value column is unchanged."""
    n = len(launch.pc)
    replaced = np.zeros(n, dtype=np.bool_)
    replaced[rows] = True
    src = np.repeat(np.arange(n, dtype=np.int64), per_row)
    fresh = np.repeat(replaced, per_row)
    mask = launch.mask[src]
    mask[fresh] = masks
    acount = launch.acount[src]
    acount[fresh] = acounts
    # gather each output row's accesses from the old tables followed by
    # the new ones
    start = launch.astart[:-1][src].astype(np.int64)
    start[fresh] = len(launch.lanes) + _exclusive_offsets(
        np.asarray(acounts, dtype=np.int64))[:-1].astype(np.int64)
    pool_lanes = np.concatenate([launch.lanes,
                                 np.asarray(lanes, dtype=np.uint8)])
    pool_addrs = np.concatenate([launch.addrs,
                                 np.asarray(addrs, dtype=np.uint64)])
    return (launch.pc[src], mask, launch.kind[src], acount,
            take_ragged(pool_lanes, start, acount),
            take_ragged(pool_addrs, start, acount), launch.vals)
