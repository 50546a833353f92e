"""Vectorized warp execution: structure-of-arrays register files + NumPy.

The scalar engine in :mod:`repro.emulator.machine` interprets every warp
instruction with a Python loop over live lanes and per-lane ``dict``
register files.  This module replaces the *data* plane with
structure-of-arrays state:

* one NumPy array of shape ``(32,)`` per live register —
  ``uint64`` bit patterns for integer registers, ``float64`` for float
  registers (Python's ``float`` *is* an IEEE double, so computing f32
  arithmetic in float64 matches the scalar engine bit for bit),
  ``bool`` for predicates;
* per-lane special registers precomputed as ``uint64`` arrays;
* ALU / compare / select / memory-address operations executed for all
  active lanes at once with masked NumPy ops.

The *control* plane — the SIMT reconvergence stack, branches, ``exit``,
``bar.sync`` and the warp scheduler loop — is not here: it lives in
:meth:`repro.emulator.machine.Emulator._run_warp`, which hands this engine
straight-line runs.  The loop over a run is the scalar engine's ``run``.

Equivalence contract: for every workload, the vectorized engine must
produce byte-identical serialized traces and identical final memory to
the scalar oracle (``tests/emulator/test_engine_differential.py``).
Three deliberate mechanisms keep that true:

* all integer arithmetic is performed modulo 2**64 in ``uint64`` and
  masked down to the instruction width, which is congruent to the
  scalar engine's arbitrary-precision-then-wrap semantics;
* transcendentals whose NumPy implementation is not guaranteed
  correctly rounded (``sin``/``cos``/``ex2``/``lg2``) and rare wide/hi
  64-bit multiplies fall back to the scalar per-lane evaluator;
* sparse masks (few active lanes, the common case inside divergent
  graph-workload loops) also take the per-lane path, because a 32-wide
  NumPy dispatch costs more than interpreting one or two lanes.
"""

from __future__ import annotations

import numpy as np

from .._bits import lanes_of, popcount
from ..ptx.isa import Imm, Reg, Space, SReg, dtype_from_name
from ..resilience.errors import TraceIntegrityError
from .grid import WARP_SIZE
from .machine import (
    EmulationError,
    _atom_result,
    _coerce_store,
    _evaluate,
    _fault_lane,
    _ScalarEngine,
    _sx,
)
from .memory import MemoryError_

_M64 = (1 << 64) - 1

#: per-lane bit values, for mask <-> bool-array conversion.
_LANE_BITS = (np.uint64(1) << np.arange(WARP_SIZE, dtype=np.uint64))

#: live-lane count at or below which the per-lane fallback is cheaper
#: than a 32-wide NumPy dispatch (measured on the workload suite).
SPARSE_LANES = 4

_U64_ZEROS = np.zeros(WARP_SIZE, dtype=np.uint64)
_U64_ZEROS.setflags(write=False)


def _bools_from_mask(mask):
    """32-bit mask -> boolean lane array."""
    return (np.uint64(mask) & _LANE_BITS) != 0


def _mask_from_bools(arr):
    """Boolean lane array -> 32-bit mask."""
    return int.from_bytes(
        np.packbits(arr, bitorder="little").tobytes(), "little")


def _sreg_arrays(sregs_dicts):
    """Per-lane special-register dicts -> ``{name: uint64 array}``."""
    arrays = {}
    names = next(d for d in sregs_dicts if d is not None).keys()
    for name in names:
        arrays[name] = np.array(
            [d[name] if d is not None else 0 for d in sregs_dicts],
            dtype=np.uint64)
        arrays[name].setflags(write=False)
    return arrays


# ---------------------------------------------------------------------------
# representation coercions
# ---------------------------------------------------------------------------


def _float_to_u64(arr):
    """Truncate float values toward zero into uint64 bit patterns, the
    array analogue of the scalar engine's ``int(value)``."""
    return np.trunc(arr).astype(np.int64).view(np.uint64)


def _to_u64(value):
    """Any operand value -> uint64 pattern array (or scalar for Imm)."""
    if isinstance(value, np.ndarray):
        if value.dtype == np.uint64:
            return value
        if value.dtype == np.bool_:
            return value.astype(np.uint64)
        return _float_to_u64(value)
    if isinstance(value, float):
        value = int(value)
    return np.uint64(value & _M64)


def _to_f64(value):
    """Any operand value -> float64 array (or scalar for Imm)."""
    if isinstance(value, np.ndarray):
        if value.dtype == np.float64:
            return value
        return value.astype(np.float64)
    return np.float64(value)


def _signed(value, bits):
    """uint64 patterns -> sign-extended int64 values at ``bits`` width."""
    u = _to_u64(value)
    if bits == 64:
        if not isinstance(u, np.ndarray):
            return np.int64(_sx(int(u), 64))
        return u.view(np.int64)
    masked = (u & np.uint64((1 << bits) - 1)).astype(np.int64)
    sign = (masked >> np.int64(bits - 1)) << np.int64(bits)
    return masked - sign


def _unsigned(value, bits):
    """uint64 patterns wrapped to ``bits`` width."""
    return _to_u64(value) & np.uint64((1 << bits) - 1)


def _int_result(values, bits):
    """int64 values -> wrapped uint64 result patterns."""
    return values.view(np.uint64) & np.uint64((1 << bits) - 1) \
        if bits < 64 else values.view(np.uint64)


def _convert_old(old, dtype):
    """Convert an existing register array to a new storage dtype when a
    masked write changes the register's kind (int <-> float <-> pred).

    Mirrors the coercion the scalar engine would apply when the stale
    per-lane value is next *read* by an op of the new kind.
    """
    if dtype == np.float64:
        return _to_f64(old)
    if dtype == np.bool_:
        return old != 0
    return _to_u64(old)


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------


class VectorEngine:
    """Masked-NumPy warp execution (the default engine)."""

    name = "vectorized"

    #: the same instruction loop as the scalar oracle, over this
    #: engine's ``pred_mask``, ``exec_alu`` and ``exec_memory``
    run = _ScalarEngine.run

    def make_registers(self, kernel, sregs):
        """``{register name: (32,) array}`` — uint64 patterns, float64
        values or bools; missing registers read as zero."""
        return {}, _sreg_arrays(sregs)

    # -- operand access ----------------------------------------------------

    @staticmethod
    def _src(warp, op):
        """Operand -> (32,) array, or a Python/NumPy scalar for Imm."""
        if isinstance(op, Imm):
            return op.value
        if isinstance(op, Reg):
            arr = warp.regs.get(op.name)
            return _U64_ZEROS if arr is None else arr
        if isinstance(op, SReg):
            return warp.sregs[op.name]
        raise EmulationError("unsupported source operand %r" % (op,))

    @staticmethod
    def _lane_value(warp, lane, op):
        """Scalar value of one lane (for the per-lane fallback paths)."""
        if isinstance(op, Imm):
            return op.value
        if isinstance(op, Reg):
            arr = warp.regs.get(op.name)
            return 0 if arr is None else arr[lane].item()
        if isinstance(op, SReg):
            return int(warp.sregs[op.name][lane])
        raise EmulationError("unsupported source operand %r" % (op,))

    @staticmethod
    def _write_masked(warp, name, result, lanes_bool, exec_mask, init_mask):
        """Store ``result`` into register ``name`` for the lanes in
        ``exec_mask``, preserving other lanes' values."""
        result = np.asarray(result)
        if result.shape != (WARP_SIZE,):
            result = np.broadcast_to(result, (WARP_SIZE,))
        if (exec_mask & init_mask) == init_mask:
            # all live lanes written: no merge needed
            warp.regs[name] = np.array(result)
            return
        old = warp.regs.get(name)
        if old is None:
            old = np.zeros(WARP_SIZE, dtype=result.dtype)
        elif old.dtype != result.dtype:
            old = _convert_old(old, result.dtype)
        warp.regs[name] = np.where(lanes_bool, result, old)

    @staticmethod
    def _store_lane(warp, name, lane, value):
        """Store one lane's scalar result (per-lane fallback path)."""
        if isinstance(value, bool):
            dtype = np.bool_
        elif isinstance(value, float):
            dtype = np.float64
        else:
            dtype = np.uint64
            value &= _M64
        arr = warp.regs.get(name)
        if arr is None:
            arr = np.zeros(WARP_SIZE, dtype=dtype)
            warp.regs[name] = arr
        elif arr.dtype != dtype:
            arr = _convert_old(arr, dtype)
            warp.regs[name] = arr
        arr[lane] = value

    # -- predicates --------------------------------------------------------

    def pred_mask(self, warp, preg, negated, live):
        arr = warp.regs.get(preg.name)
        if arr is None:
            # unset predicate reads as False in every lane
            return live if negated else 0
        if popcount(live) <= SPARSE_LANES:
            pmask = 0
            for lane in lanes_of(live):
                if bool(arr[lane]) != negated:
                    pmask |= 1 << lane
            return pmask
        truth = arr != 0
        if negated:
            truth = ~truth
        return _mask_from_bools(truth) & live

    # -- ALU ---------------------------------------------------------------

    def exec_alu(self, warp, inst, exec_mask):
        warp.trace.append(inst, exec_mask)
        if not inst.dests:
            return
        dest = inst.dests[0].name
        if popcount(exec_mask) <= SPARSE_LANES:
            self._exec_alu_lanes(warp, inst, exec_mask, dest)
            return
        srcs = [self._src(warp, s) for s in inst.srcs]
        result = _evaluate_vec(inst, inst.opcode, inst.dtype, srcs)
        if result is None:
            self._exec_alu_lanes(warp, inst, exec_mask, dest)
            return
        self._write_masked(warp, dest, result, _bools_from_mask(exec_mask),
                           exec_mask, warp.init_mask & ~warp.done_mask)

    def _exec_alu_lanes(self, warp, inst, exec_mask, dest):
        """Per-lane evaluation through the scalar semantics (sparse masks
        and ops without a vectorized implementation)."""
        for lane in lanes_of(exec_mask):
            srcs = [self._lane_value(warp, lane, s) for s in inst.srcs]
            value = _evaluate(inst, inst.opcode, inst.dtype, srcs)
            self._store_lane(warp, dest, lane, value)

    # -- memory ------------------------------------------------------------

    def _addresses(self, warp, inst, active_lanes):
        """Per-lane effective addresses of a memory instruction, as a
        list of ``(lane, addr)`` pairs (trace order)."""
        memref = inst.memref
        base = memref.base
        if isinstance(base, Reg):
            arr = warp.regs.get(base.name)
            base_arr = _U64_ZEROS if arr is None else _to_u64(arr)
            if len(active_lanes) <= SPARSE_LANES:
                offset = memref.offset
                return [(lane, (int(base_arr[lane]) + offset) & _M64)
                        for lane in active_lanes]
            addr_arr = base_arr + np.uint64(memref.offset & _M64)
            return [(lane, int(addr_arr[lane])) for lane in active_lanes]
        if isinstance(base, Imm):
            addr = int(base.value) + memref.offset
            return [(lane, addr) for lane in active_lanes]
        if isinstance(base, SReg):
            arr = warp.sregs[base.name]
            return [(lane, int(arr[lane]) + memref.offset)
                    for lane in active_lanes]
        raise EmulationError("cannot address through %r" % (base,))

    def exec_memory(self, emu, warp, inst, exec_mask, shared, params):
        space = inst.space
        dtype = inst.dtype

        if space is Space.PARAM:
            name = inst.memref.base.name
            value = params[name]
            result = (np.float64(value) if isinstance(value, float)
                      else np.uint64(int(value) & _M64))
            self._write_masked(
                warp, inst.dests[0].name, result,
                _bools_from_mask(exec_mask), exec_mask,
                warp.init_mask & ~warp.done_mask)
            warp.trace.append(inst, exec_mask)
            return

        active = lanes_of(exec_mask)
        addresses = self._addresses(warp, inst, active)
        width = dtype.nbytes
        target = shared if space is Space.SHARED else emu.memory

        stored = []
        try:
            self._exec_memory_lanes(warp, inst, addresses, width, target,
                                    active, exec_mask, stored)
        except MemoryError_ as exc:
            if exc.lane is None:
                count = max(len(inst.dests), len(inst.srcs) - 1, 1)
                exc.lane = _fault_lane(addresses, exc.addr, width, count)
            raise
        if inst.is_store and \
                len(stored) != len(addresses) * (len(inst.srcs) - 1):
            # per-warp columnar guard: a store must record exactly
            # ``vector`` values per accessed lane (the schema invariant
            # seal() enforces launch-wide); catching the drift here
            # attributes it and lets the fallback chain retry on the
            # scalar oracle instead of failing at serialization time
            raise TraceIntegrityError(
                "store at pc %#x of warp (%d, %d) produced %d values for "
                "%d accesses" % (inst.pc, warp.trace.cta_id, warp.warp_id,
                                 len(stored), len(addresses)))
        warp.trace.append(inst, exec_mask, tuple(addresses),
                          tuple(stored) if inst.is_store else None)

    def _exec_memory_lanes(self, warp, inst, addresses, width, target,
                           active, exec_mask, stored):
        dtype = inst.dtype
        if inst.is_load:
            is_float = dtype.is_float
            for k, dest in enumerate(inst.dests):
                values = [target.load(addr + k * width, dtype)
                          for _lane, addr in addresses]
                self._scatter_loaded(warp, dest.name, active, values,
                                     is_float, exec_mask)
        elif inst.is_store:
            value_arrays = [self._src(warp, op) for op in inst.srcs[1:]]
            for lane, addr in addresses:
                for k, varr in enumerate(value_arrays):
                    value = (varr if not isinstance(varr, np.ndarray)
                             else varr[lane].item())
                    value = _coerce_store(value, dtype)
                    stored.append(value)
                    target.store(addr + k * width, dtype, value)
        elif inst.is_atomic:
            # ``red`` has no destination: skip the old-value scatter
            dest = inst.dests[0].name if inst.dests else None
            op1 = inst.srcs[1]
            op2 = inst.srcs[2] if len(inst.srcs) > 2 else None
            olds = []
            for lane, addr in addresses:
                old = target.load(addr, dtype)
                operand = self._lane_value(warp, lane, op1)
                operand2 = (self._lane_value(warp, lane, op2)
                            if op2 is not None else None)
                if dtype.is_signed:
                    operand = _sx(int(operand), dtype.bits)
                    if operand2 is not None:
                        operand2 = _sx(int(operand2), dtype.bits)
                new = _atom_result(inst.atom_op, old, operand, operand2,
                                   dtype)
                target.store(addr, dtype, _coerce_store(new, dtype))
                olds.append(old)
            if dest is not None:
                self._scatter_loaded(warp, dest, active, olds,
                                     dtype.is_float, exec_mask)

    def _scatter_loaded(self, warp, name, active_lanes, values, is_float,
                        exec_mask):
        """Write per-lane loaded values into a register array, leaving
        inactive lanes untouched."""
        dtype = np.float64 if is_float else np.uint64
        arr = warp.regs.get(name)
        if arr is None:
            arr = np.zeros(WARP_SIZE, dtype=dtype)
        elif arr.dtype != dtype:
            arr = _convert_old(arr, dtype)
        else:
            arr = arr.copy()
        if is_float:
            for lane, value in zip(active_lanes, values):
                arr[lane] = value
        else:
            for lane, value in zip(active_lanes, values):
                arr[lane] = value & _M64
        warp.regs[name] = arr


# ---------------------------------------------------------------------------
# vectorized semantics (mirrors machine._evaluate; returns None to request
# the per-lane scalar fallback)
# ---------------------------------------------------------------------------


def _evaluate_vec(inst, op, dtype, srcs):
    if op == "mov" or op == "cvta":
        value = srcs[0]
        if dtype is not None and dtype.is_float:
            return np.asarray(_to_f64(value))
        if dtype is not None and dtype.is_integer:
            return np.asarray(_unsigned(value, dtype.bits))
        # typeless mov: preserve the value's kind
        if isinstance(value, float) or (isinstance(value, np.ndarray)
                                        and value.dtype == np.float64):
            return np.asarray(_to_f64(value))
        return np.asarray(_to_u64(value))

    if op == "cvt":
        return _convert_vec(inst, dtype, srcs[0])

    if op == "setp":
        return _compare_vec(inst.cmp_op, srcs[0], srcs[1], dtype)

    if op == "selp":
        cond = srcs[2]
        truth = (cond != 0) if isinstance(cond, np.ndarray) else bool(cond)
        if dtype is not None and dtype.is_float:
            return np.where(truth, _to_f64(srcs[0]), _to_f64(srcs[1]))
        return np.where(truth, _to_u64(srcs[0]), _to_u64(srcs[1]))

    if dtype is not None and dtype.is_float:
        return _evaluate_float_vec(op, srcs)

    return _evaluate_int_vec(inst, op, dtype, srcs)


def _convert_vec(inst, dest_dtype, value):
    src_dtype = None
    for mod in inst.modifiers:
        try:
            src_dtype = dtype_from_name(mod)
            break
        except Exception:
            continue
    if src_dtype is not None and src_dtype.is_integer and src_dtype.is_signed:
        value = _signed(value, src_dtype.bits)
    elif src_dtype is not None and src_dtype.is_integer:
        value = _unsigned(value, src_dtype.bits)
    if dest_dtype.is_float:
        return np.asarray(_to_f64(value))
    if isinstance(value, np.ndarray) and value.dtype == np.int64:
        return _int_result(value, dest_dtype.bits)
    return np.asarray(_unsigned(value, dest_dtype.bits))


def _compare_vec(cmp_op, a, b, dtype):
    if dtype.is_float:
        fa, fb = _to_f64(a), _to_f64(b)
    elif cmp_op.endswith("u") and cmp_op not in ("eq", "ne"):
        fa, fb = _unsigned(a, dtype.bits), _unsigned(b, dtype.bits)
        cmp_op = cmp_op[:-1]
    elif dtype.is_signed:
        fa, fb = _signed(a, dtype.bits), _signed(b, dtype.bits)
    else:
        fa, fb = _unsigned(a, dtype.bits), _unsigned(b, dtype.bits)
    if cmp_op == "eq":
        return np.asarray(fa == fb)
    if cmp_op == "ne":
        return np.asarray(fa != fb)
    if cmp_op == "lt":
        return np.asarray(fa < fb)
    if cmp_op == "le":
        return np.asarray(fa <= fb)
    if cmp_op == "gt":
        return np.asarray(fa > fb)
    if cmp_op == "ge":
        return np.asarray(fa >= fb)
    raise EmulationError("unsupported comparison %r" % cmp_op)


def _evaluate_float_vec(op, srcs):
    if op in ("sin", "cos", "ex2", "lg2"):
        # libm-backed transcendentals are not guaranteed to round
        # identically between Python's math module and NumPy: per-lane.
        return None
    a = _to_f64(srcs[0]) if srcs else np.float64(0.0)
    b = _to_f64(srcs[1]) if len(srcs) > 1 else np.float64(0.0)
    c = _to_f64(srcs[2]) if len(srcs) > 2 else np.float64(0.0)
    if op == "add":
        return np.asarray(a + b)
    if op == "sub":
        return np.asarray(a - b)
    if op == "mul":
        return np.asarray(a * b)
    if op in ("mad", "fma"):
        # two rounding steps, matching the scalar engine's a * b + c
        return np.asarray(a * b + c)
    if op == "div":
        return np.asarray(a / b)
    if op == "min":
        return np.asarray(np.minimum(a, b))
    if op == "max":
        return np.asarray(np.maximum(a, b))
    if op == "abs":
        return np.asarray(np.abs(a))
    if op == "neg":
        return np.asarray(-a)
    if op == "rcp":
        return np.asarray(1.0 / a)
    if op == "sqrt":
        return np.asarray(np.sqrt(a))
    if op == "rsqrt":
        return np.asarray(1.0 / np.sqrt(a))
    raise EmulationError("unsupported float op %r" % op)


def _evaluate_int_vec(inst, op, dtype, srcs):
    bits = dtype.bits if dtype is not None else 32
    signed = dtype.is_signed if dtype is not None else False
    u = [_to_u64(v) for v in srcs]

    if op == "add":
        return _unsigned(u[0] + u[1], bits)
    if op == "sub":
        return _unsigned(u[0] - u[1], bits)
    if op in ("mul", "mad"):
        return _mul_vec(inst, op, bits, signed, u)
    if op in ("div", "rem"):
        return _div_vec(op, bits, signed, u)
    if op == "min" or op == "max":
        fn = np.minimum if op == "min" else np.maximum
        if signed:
            return _int_result(fn(_signed(u[0], bits), _signed(u[1], bits)),
                               bits)
        return fn(_unsigned(u[0], bits), _unsigned(u[1], bits))
    if op == "abs":
        return _int_result(np.abs(_signed(u[0], bits)), bits)
    if op == "neg":
        return _unsigned(np.uint64(0) - u[0], bits)
    if op == "and":
        return _unsigned(u[0] & u[1], bits)
    if op == "or":
        return _unsigned(u[0] | u[1], bits)
    if op == "xor":
        return _unsigned(u[0] ^ u[1], bits)
    if op == "not":
        return _unsigned(~u[0], bits)
    if op == "shl" or op == "shr":
        return _shift_vec(op, bits, signed, u)
    raise EmulationError("unsupported integer op %r" % op)


def _shift_vec(op, bits, signed, u):
    """PTX ``shl``/``shr``: the shift amount is read as unsigned and
    clamped at the register width.  Shifting a uint64 by >= 64 is
    undefined in C (and platform-dependent in NumPy), so the amount is
    clamped to the defined < 64 range *before* any NumPy shift — no lane
    ever evaluates an undefined shift, even on a discarded branch."""
    shift = np.minimum(u[1], np.uint64(bits))
    if op == "shr" and signed:
        # arithmetic shift saturates at the sign bit, so clamping the
        # (already width-clamped) amount to 63 preserves semantics
        sh = np.minimum(shift, np.uint64(63)).astype(np.int64)
        return _int_result(np.asarray(_signed(u[0], bits) >> sh), bits)
    # a full-width shift (only reachable when bits == 64) yields 0; for
    # narrower types the wrap below zeroes the result without help
    full = shift >= np.uint64(64)
    safe = np.where(full, np.uint64(0), shift)
    if op == "shl":
        return _unsigned(np.where(full, np.uint64(0), u[0] << safe), bits)
    return np.asarray(np.where(full, np.uint64(0),
                               _unsigned(u[0], bits) >> safe))


def _mul_vec(inst, op, bits, signed, u):
    mode = inst.mul_mode
    if mode in ("wide", "hi") and bits > 32:
        return None  # 128-bit intermediate: per-lane big-int fallback
    if op == "mad":
        # NB: the scalar engine applies "wide" for mad but treats any
        # other mode (incl. "hi") as low-half semantics — mirror that.
        if mode == "wide":
            if signed:
                prod = (_signed(u[0], bits)
                        * _signed(u[1], bits)).view(np.uint64)
            else:
                prod = _unsigned(u[0], bits) * _unsigned(u[1], bits)
            return _unsigned(prod + u[2], min(64, bits * 2))
        return _unsigned(u[0] * u[1] + u[2], bits)
    if mode == "wide":
        if signed:
            prod = (_signed(u[0], bits) * _signed(u[1], bits)).view(np.uint64)
        else:
            prod = _unsigned(u[0], bits) * _unsigned(u[1], bits)
        return _unsigned(prod, min(64, bits * 2))
    if mode == "hi":
        if signed:
            prod = _signed(u[0], bits) * _signed(u[1], bits)
            return _int_result(np.asarray(prod >> np.int64(bits)), bits)
        prod = _unsigned(u[0], bits) * _unsigned(u[1], bits)
        return (prod >> np.uint64(bits)) & np.uint64((1 << bits) - 1)
    return _unsigned(u[0] * u[1], bits)


def _div_vec(op, bits, signed, u):
    if signed:
        a, b = _signed(u[0], bits), _signed(u[1], bits)
        if np.any(b == 0):
            return None  # scalar fallback raises like the oracle
        if bits == 64 and (np.any(a == np.int64(-2**63))
                           or np.any(b == np.int64(-2**63))):
            # np.abs(INT64_MIN) overflows (stays negative); the per-lane
            # big-int fallback wraps INT_MIN/-1 the way PTX requires
            return None
        q = np.abs(a) // np.abs(b)
        q = np.where((a < 0) != (b < 0), -q, q)
        if op == "rem":
            return _int_result(a - b * q, bits)
        return _int_result(q, bits)
    a, b = _unsigned(u[0], bits), _unsigned(u[1], bits)
    if np.any(b == 0):
        return None
    if op == "rem":
        return a % b
    return a // b
