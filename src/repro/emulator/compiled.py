"""Compiled warp engine: per-kernel generated Python hot paths.

``REPRO_ENGINE=compiled`` (or ``Emulator(engine="compiled")``) selects
this engine.  Instead of interpreting one instruction at a time, it
lazily *generates and compiles* straight-line Python for each run the
SIMT driver (:meth:`repro.emulator.machine.Emulator._run_warp`) hands it
— maximal runs of non-control instructions that do not cross a
reconvergence point, shortened where the watchdog budget runs out — and
caches the code per ``(start, end)``.  Branches, ``exit``, barriers, the
reconvergence stack and fault attribution stay in the driver.

Why this is fast where the vectorized engine is not: on branchy,
data-dependent kernels (bfs, ccl, grm) warps run with a handful of
active lanes, so NumPy's per-instruction dispatch overhead dominates.
The generated code pays its costs *per segment* instead:

* register files are register-major (``{name: [v]*32}``), so dict
  lookups hoist out of the lane loop and per-lane access is a list
  index;
* one fused ``for l in lanes`` loop executes a whole run of ALU
  instructions with values carried in Python locals;
* memory instructions keep their own lane loop (preserving the scalar
  engine's instruction-major access order, which matters when lanes
  race) and go through the precompiled fast accessors of
  :mod:`repro.emulator.memory`;
* traces are appended in batches (:meth:`ColumnarWarpTrace.append_run`
  for address-less runs, :meth:`ColumnarWarpTrace.append_memory` per
  memory op) — identical columns to the other engines.

The engine is pure Python + ``compile()`` and needs no optional
dependency.

Semantics are pinned by ``tests/emulator/test_engine_differential.py``:
serialized traces must be byte-identical to the scalar oracle and
metrics-registry snapshots engine-invariant, including memory faults,
watchdog and barrier-deadlock behavior.
"""

from __future__ import annotations

import math
import struct

from .._bits import lanes_of as _lanes_of
from ..ptx.isa import Imm, MemRef, Reg, Space, SReg, dtype_from_name
from ..resilience.errors import CodegenError
from .columnar import op_kind
from .grid import WARP_SIZE
from .machine import (
    EmulationError,
    _atom_result,
    _coerce_store,
    _trunc_div,
    _trunc_rem,
)
from .memory import MemoryError_

_U64_MASK = (1 << 64) - 1
_pack_d = struct.Struct("<d").pack

_CMP_PY = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=",
           "gt": ">", "ge": ">="}

#: Value-kind lattice element for codegen peepholes: ``(kind, mbits)``.
#: ``kind`` is "int" / "float" / "bool" / None (unknown); for "int",
#: ``mbits`` (when not None) guarantees the value lies in [0, 2**mbits).
_UNKNOWN = (None, None)


def _merge_kind(a, b):
    """Join two value kinds (e.g. across a predicated write)."""
    ka, ma = a
    kb, mb = b
    if ka != kb or ka is None:
        return _UNKNOWN
    if ma is None or mb is None:
        return (ka, None)
    return (ka, max(ma, mb))


def _static_write_kind(inst):
    """Upper bound on the value kind ``inst`` can write to its dests,
    assuming nothing about its inputs (flow-insensitive)."""
    op = inst.opcode
    dt = inst.dtype
    if inst.is_memory:
        if inst.space is Space.PARAM:
            return _UNKNOWN  # launch params arrive uncoerced
        if dt is None:
            return _UNKNOWN
        if dt.is_float:
            return ("float", None)
        if dt.is_signed:
            return ("int", None)  # signed unpack can yield negatives
        return ("int", dt.bits)
    if op == "setp":
        return ("bool", None)
    if op == "selp":
        return _UNKNOWN  # passes a source through raw
    if op in ("mov", "cvta") and (
            dt is None or not (dt.is_float or dt.is_integer)):
        return _UNKNOWN  # raw move
    if dt is not None and dt.is_float:
        return ("float", None)
    if dt is not None and dt.is_integer:
        bits = dt.bits
        if op in ("mul", "mad") and inst.mul_mode == "wide":
            bits = 2 * dt.bits
        return ("int", bits)
    return _UNKNOWN


def _infer_entry_kinds(insts, reg_names):
    """Whole-kernel ``reg -> (kind, mbits)`` invariant: at any point a
    register holds either its initial 0 or some write site's result,
    so the join of all static write kinds bounds every read."""
    kinds = {}
    for inst in insts:
        if not inst.dests or inst.is_store:
            continue
        k = _static_write_kind(inst)
        for d in inst.dests:
            if isinstance(d, Reg):
                prev = kinds.get(d.name)
                kinds[d.name] = k if prev is None else _merge_kind(prev, k)
    # the initial 0 is subsumed by every claim: it lies in any int
    # range, and behaves as 0.0 / False under all coerced uses
    return {name: kinds.get(name, ("int", 0)) for name in reg_names}


def _san(name):
    return name.lstrip("%").replace(".", "_")


class CompiledEngine:
    """Engine facade: generated straight-line segments per kernel."""

    name = "compiled"

    def __init__(self):
        self._kernels = {}

    def make_registers(self, kernel, sregs):
        """Register-major files (``regs[name][lane]``) for the kernel's
        registers, and its used special registers transposed the same
        way."""
        ck = self._compiled_kernel(kernel)
        return ({name: [0] * WARP_SIZE for name in ck.reg_names},
                {k: [(s[k] if s is not None else 0) for s in sregs]
                 for k in ck.sreg_names})

    def pred_mask(self, warp, preg, negated, live):
        P = warp.regs.get(preg.name)
        pmask = 0
        if P is None:
            return live if negated else 0
        for lane in _lanes_of(live):
            if bool(P[lane]) != negated:
                pmask |= 1 << lane
        return pmask

    def _compiled_kernel(self, kernel):
        entry = self._kernels.get(id(kernel))
        if entry is not None and entry.kernel is kernel:
            return entry
        # Anything the segment analyzer raises here is an engine
        # infrastructure failure, not a property of the workload: the
        # scalar oracle would run the same kernel fine.  Typed as
        # CodegenError so the fallback chain can downgrade the engine.
        try:
            entry = _CompiledKernel(kernel)
        except Exception as exc:
            raise CodegenError(
                "kernel analysis failed: %s" % (exc,),
                kernel=kernel.name) from exc
        self._kernels[id(kernel)] = entry
        return entry

    def run(self, emu, kernel, warp, start, end, live, shared, params):
        """Execute instructions ``[start, end)`` for the ``live`` lanes
        of ``warp`` through their generated segment."""
        ck = self._compiled_kernel(kernel)
        fn = ck.segments.get((start, end))
        if fn is None:
            try:
                fn = _SegmentCompiler(ck, start, end, emu).compile()
            except Exception as exc:
                raise CodegenError(
                    "segment compilation failed at pc %#x: %s"
                    % (ck.insts[start].pc, exc),
                    kernel=kernel.name) from exc
            ck.segments[(start, end)] = fn
        fn(warp, live, _lanes_of(live), shared, params, warp.trace)


class _CompiledKernel:
    """Per-kernel compilation state: register names, value kinds and the
    segment cache."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.insts = kernel.instructions
        names = set()
        snames = set()
        for inst in self.insts:
            for d in inst.dests:
                if isinstance(d, Reg):
                    names.add(d.name)
            for s in inst.srcs:
                if isinstance(s, Reg):
                    names.add(s.name)
                elif isinstance(s, SReg):
                    snames.add(s.name)
                elif isinstance(s, MemRef):
                    if isinstance(s.base, Reg):
                        names.add(s.base.name)
                    elif isinstance(s.base, SReg):
                        snames.add(s.base.name)
            if inst.pred is not None:
                names.add(inst.pred[0].name)
        self.reg_names = sorted(names)
        self.sreg_names = sorted(snames)
        #: flow-insensitive ``reg -> (kind, mbits)``: the join of what
        #: every static write site can produce.  Registers never
        #: written hold their initial 0.  (The int 0 a float register
        #: starts with is value-equivalent to 0.0 in every coerced use,
        #: so all-float-written registers still count as "float".)
        self.entry_kind = _infer_entry_kinds(self.insts, self.reg_names)
        #: ``(start, end) -> fn``, compiled on first use
        self.segments = {}


# ---------------------------------------------------------------------------
# code generation
# ---------------------------------------------------------------------------


class _SegmentCompiler:
    """Builds the Python source + namespace for one segment."""

    def __init__(self, ck, start, end, emu):
        self.ck = ck
        self.insts = ck.insts
        self.start = start
        self.end = end
        self.emu = emu
        self.ns = {
            "_MERR": MemoryError_,
            "_EERR": EmulationError,
            "_atom": _atom_result,
            "_coerce": _coerce_store,
            "_tdiv": _trunc_div,
            "_trem": _trunc_rem,
            "_pack_d": _pack_d,
            "_ifb": int.from_bytes,
            "_U64M": _U64_MASK,
            "_sqrt": math.sqrt,
            "_sin": math.sin,
            "_cos": math.cos,
            "_log2": math.log2,
        }
        self.hoists = []
        self._hoisted = {}
        self._n = 0
        #: reg name -> (kind, mbits) known to hold for every live lane
        #: at the current emission point (live lanes are fixed within a
        #: segment, so fused write-backs and unpredicated loads define
        #: all of them).  Seeded with the kernel-wide invariant and
        #: refined in program order; lets codegen drop redundant
        #: coercions and re-masks.
        self.reg_kind = dict(ck.entry_kind)

    # -- naming / hoisting -------------------------------------------------

    def _fresh(self, prefix):
        self._n += 1
        return "_%s%d" % (prefix, self._n)

    def bind(self, value, prefix):
        name = self._fresh(prefix)
        self.ns[name] = value
        return name

    def hoist(self, key, make_line, var_prefix):
        var = self._hoisted.get(key)
        if var is None:
            var = self._fresh(var_prefix)
            self._hoisted[key] = var
            self.hoists.append(make_line(var))
        return var

    def reg_list(self, name):
        return self.hoist(("reg", name),
                          lambda v: "%s = R[%r]" % (v, name), "R")

    def sreg_list(self, name):
        return self.hoist(("sreg", name),
                          lambda v: "%s = S[%r]" % (v, name), "S")

    def param_value(self, name):
        return self.hoist(("param", name),
                          lambda v: "%s = params[%r]" % (v, name), "P")

    def accessor(self, space, dtype, store):
        """Fast memory accessor: global ones bind directly (the memory
        image is fixed per emulator), shared ones are fetched from the
        per-CTA object at segment entry."""
        kind = "storer" if store else "loader"
        if space is Space.SHARED:
            dt = self.bind(dtype, "dt")
            return self.hoist(("sh", kind, dtype),
                              lambda v: "%s = shared.%s(%s)" % (v, kind, dt),
                              "A")
        fn = getattr(self.emu.memory, kind)(dtype)
        key = ("gl", kind, dtype)
        var = self._hoisted.get(key)
        if var is None:
            var = self.bind(fn, "G")
            self._hoisted[key] = var
        return var

    # -- source assembly ---------------------------------------------------

    def compile(self):
        body = []
        i = self.start
        while i < self.end:
            inst = self.insts[i]
            if inst.is_memory and inst.space is not Space.PARAM:
                body.extend(self._emit_memory(i))
                i += 1
            else:
                j = i
                while (j < self.end
                       and not (self.insts[j].is_memory
                                and self.insts[j].space is not Space.PARAM)):
                    j += 1
                body.extend(self._emit_fused(i, j))
                i = j
        src = ["def _segment(warp, live, lanes, shared, params, record):",
               "    R = warp.regs",
               "    S = warp.sregs"]
        src.extend("    " + line for line in self.hoists)
        src.extend("    " + line for line in body)
        code = "\n".join(src) + "\n"
        exec(compile(code, "<segment %s:%d-%d>"
                     % (self.ck.kernel.name, self.start, self.end),
                     "exec"), self.ns)
        return self.ns["_segment"]

    # -- fused ALU blocks --------------------------------------------------

    def _emit_fused(self, start, end):
        """One ``for l in lanes`` loop covering insts [start, end) —
        all non-memory, so lanes are independent and values flow
        through Python locals."""
        pre = []          # before the lane loop (mask accumulators)
        top = []          # loop-top per-lane register loads
        body = []         # loop body (base indent inside the loop)
        defined = {}      # reg name -> local var
        loaded = set()    # regs already loaded at loop top
        wrote = []        # regs needing write-back, in definition order
        appends = []      # trace appends, in program order
        run = []          # batched consecutive unpredicated pcs
        kinds = {}        # reg name -> (kind, mbits) within this block

        def local_read(name):
            var = defined.get(name)
            if var is None:
                var = "v_" + _san(name)
                defined[name] = var
                loaded.add(name)
                kinds.setdefault(name, self.reg_kind.get(name, _UNKNOWN))
                top.append("%s = %s[l]" % (var, self.reg_list(name)))
            return var

        def local_write(name, need_old):
            var = defined.get(name)
            if var is None:
                if need_old:
                    var = local_read(name)
                else:
                    var = "v_" + _san(name)
                    defined[name] = var
            if name not in wrote:
                wrote.append(name)
            return var

        def kindof(name):
            return kinds.get(name, _UNKNOWN)

        def flush_run():
            if run:
                if len(run) == 1:
                    appends.append("record.append_run((%d,), live)" % run[0])
                else:
                    name = self.bind(tuple(run), "pcs")
                    appends.append("record.append_run(%s, live)" % name)
                del run[:]

        for idx in range(start, end):
            inst = self.insts[idx]
            # register reads before the write is registered, so an inst
            # reading its own dest (add %r, %r, 1) loads the old value
            for s_op in inst.srcs:
                if isinstance(s_op, Reg):
                    local_read(s_op.name)
            if inst.pred is not None:
                flush_run()
                preg, negated = inst.pred
                pv = local_read(preg.name)
                macc = "_m%d" % idx
                pre.append("%s = 0" % macc)
                guard = ("if not %s:" % pv) if negated else ("if %s:" % pv)
                inner = ["%s |= 1 << l" % macc]
                lines, dk = self._alu_lines(inst, local_read,
                                            lambda n: local_write(n, True),
                                            kindof)
                inner.extend(lines)
                body.append(guard)
                body.extend("    " + line for line in inner)
                appends.append("record.append_run((%d,), %s)"
                               % (inst.pc, macc))
                if inst.dests:
                    # lanes failing the guard keep the old value
                    name = inst.dests[0].name
                    kinds[name] = _merge_kind(kindof(name), dk)
            else:
                lines, dk = self._alu_lines(inst, local_read,
                                            lambda n: local_write(n, False),
                                            kindof)
                body.extend(lines)
                if inst.dests:
                    kinds[inst.dests[0].name] = dk
                run.append(inst.pc)
        flush_run()

        out = list(pre)
        loop = top + body + ["%s[l] = %s" % (self.reg_list(n), defined[n])
                             for n in wrote]
        if loop:
            out.append("for l in lanes:")
            out.extend("    " + line for line in loop)
        out.extend(appends)
        for n in wrote:
            self.reg_kind[n] = kinds.get(n, _UNKNOWN)
        return out

    def _alu_lines(self, inst, rd, wr, kindof):
        """Statements computing one non-memory instruction for lane
        ``l`` (locals only) — mirrors ``machine._evaluate``.

        Returns ``(lines, dest_kind)`` where ``dest_kind`` is the
        ``(kind, mbits)`` the destination holds afterwards (see
        ``_merge_kind``), letting later instructions elide redundant
        ``int()``/``float()`` coercions and re-masks."""
        if inst.is_memory:  # Space.PARAM
            return self._param_lines(inst, wr)
        if not inst.dests:
            return [], _UNKNOWN
        op = inst.opcode
        dt = inst.dtype

        def kind(op_):
            if isinstance(op_, Reg):
                return kindof(op_.name)
            if isinstance(op_, Imm):
                v = op_.value
                if isinstance(v, float):
                    return ("float", None)
                return ("int", v.bit_length()) if v >= 0 else ("int", None)
            if isinstance(op_, SReg):
                return ("int", None)  # nonnegative, width unknown
            return _UNKNOWN

        def src(op_, mode):
            if isinstance(op_, Imm):
                v = op_.value
                if mode == "int":
                    v = int(v)
                elif mode == "float":
                    v = float(v)
                return repr(v)
            if isinstance(op_, Reg):
                var = rd(op_.name)
                k = kindof(op_.name)[0]
                if mode == "int":
                    # bool is an int subclass: arithmetic/masking agree
                    return var if k in ("int", "bool") else "int(%s)" % var
                if mode == "float":
                    return var if k == "float" else "float(%s)" % var
                return var
            if isinstance(op_, SReg):
                e = "%s[l]" % self.sreg_list(op_.name)
                return ("float(%s)" % e) if mode == "float" else e
            raise EmulationError("unsupported source operand %r" % (op_,))

        dst = wr(inst.dests[0].name)
        srcs = inst.srcs

        if op in ("mov", "cvta"):
            s0 = srcs[0]
            if dt is not None and dt.is_float:
                return ["%s = %s" % (dst, src(s0, "float"))], ("float", None)
            if dt is not None and dt.is_integer:
                m = (1 << dt.bits) - 1
                if isinstance(s0, Imm):
                    return (["%s = %r" % (dst, int(s0.value) & m)],
                            ("int", dt.bits))
                k, mb = kind(s0)
                if k == "int" and mb is not None and mb <= dt.bits:
                    return ["%s = %s" % (dst, src(s0, "raw"))], ("int", mb)
                return (["%s = %s & %#x" % (dst, src(s0, "int"), m)],
                        ("int", dt.bits))
            return ["%s = %s" % (dst, src(s0, "raw"))], kind(s0)

        if op == "cvt":
            return self._cvt_lines(inst, dst, src, kind)

        if op == "setp":
            return self._setp_lines(inst, dst, src, kind)

        if op == "selp":
            lines = ["%s = %s if %s else %s"
                     % (dst, src(srcs[0], "raw"), src(srcs[2], "raw"),
                        src(srcs[1], "raw"))]
            return lines, _merge_kind(kind(srcs[0]), kind(srcs[1]))

        if dt is not None and dt.is_float:
            return self._float_lines(inst, dst, src)
        return self._int_lines(inst, dst, src, kind)

    def _param_lines(self, inst, wr):
        value = self.param_value(inst.memref.base.name)
        dst = wr(inst.dests[0].name)
        return ["%s = %s" % (dst, value)], _UNKNOWN

    def _cvt_lines(self, inst, dst, src, kind):
        src_dt = None
        for mod in inst.modifiers:
            try:
                src_dt = dtype_from_name(mod)
                break
            except Exception:
                continue
        lines = []
        s0 = inst.srcs[0]
        e = src(s0, "raw")
        k, mb = kind(s0)
        if src_dt is not None and src_dt.is_integer:
            if src_dt.is_signed:
                # a value known narrower than the sign bit sign-extends
                # to itself
                if not (k == "int" and mb is not None
                        and mb < src_dt.bits):
                    m = (1 << src_dt.bits) - 1
                    sb = 1 << (src_dt.bits - 1)
                    t = self._fresh("t")
                    ie = e if k in ("int", "bool") else "int(%s)" % e
                    lines.append("%s = ((%s & %#x) ^ %#x) - %#x"
                                 % (t, ie, m, sb, sb))
                    e, k, mb = t, "int", None  # may be negative
            elif not (k == "int" and mb is not None
                      and mb <= src_dt.bits):
                t = self._fresh("t")
                ie = e if k in ("int", "bool") else "int(%s)" % e
                lines.append("%s = %s & %#x"
                             % (t, ie, (1 << src_dt.bits) - 1))
                e, k, mb = t, "int", src_dt.bits
        dt = inst.dtype
        if dt.is_float:
            if k == "float":
                lines.append("%s = %s" % (dst, e))
            else:
                lines.append("%s = float(%s)" % (dst, e))
            return lines, ("float", None)
        if k == "int" and mb is not None and mb <= dt.bits:
            lines.append("%s = %s" % (dst, e))
            return lines, ("int", mb)
        ie = e if k in ("int", "bool") else "int(%s)" % e
        lines.append("%s = %s & %#x" % (dst, ie, (1 << dt.bits) - 1))
        return lines, ("int", dt.bits)

    def _setp_lines(self, inst, dst, src, kind):
        dt = inst.dtype
        cmp_op = inst.cmp_op
        if dt is not None and dt.is_float:
            py = _CMP_PY.get(cmp_op)
            if py is None:
                return (["raise _EERR(%r)"
                         % ("unsupported comparison %r" % cmp_op)],
                        _UNKNOWN)
            return (["%s = %s %s %s"
                     % (dst, src(inst.srcs[0], "float"), py,
                        src(inst.srcs[1], "float"))],
                    ("bool", None))
        bits = dt.bits if dt is not None else 32
        if cmp_op.endswith("u") and cmp_op not in ("eq", "ne"):
            base, signed = cmp_op[:-1], False
        elif dt is not None and dt.is_signed:
            base, signed = cmp_op, True
        else:
            base, signed = cmp_op, False
        py = _CMP_PY.get(base)
        if py is None:
            return (["raise _EERR(%r)"
                     % ("unsupported comparison %r" % base)], _UNKNOWN)

        def operand(op_):
            if isinstance(op_, Imm):
                v = int(op_.value) & ((1 << bits) - 1)
                if signed and v >> (bits - 1):
                    v -= 1 << bits
                return repr(v)
            e = src(op_, "int")
            k, mb = kind(op_)
            m, sb = (1 << bits) - 1, 1 << (bits - 1)
            if signed:
                if k == "int" and mb is not None and mb < bits:
                    return e  # narrower than the sign bit: already itself
                return "(((%s & %#x) ^ %#x) - %#x)" % (e, m, sb, sb)
            if k == "int" and mb is not None and mb <= bits:
                return e
            return "(%s & %#x)" % (e, m)

        return (["%s = %s %s %s"
                 % (dst, operand(inst.srcs[0]), py,
                    operand(inst.srcs[1]))],
                ("bool", None))

    def _float_lines(self, inst, dst, src):
        op = inst.opcode
        s = inst.srcs
        a = src(s[0], "float") if s else "0.0"
        b = src(s[1], "float") if len(s) > 1 else "0.0"
        c = src(s[2], "float") if len(s) > 2 else "0.0"
        simple = {"add": "%s + %s" % (a, b), "sub": "%s - %s" % (a, b),
                  "mul": "%s * %s" % (a, b), "div": "%s / %s" % (a, b),
                  "min": "min(%s, %s)" % (a, b),
                  "max": "max(%s, %s)" % (a, b),
                  "abs": "abs(%s)" % a, "neg": "-%s" % a,
                  "rcp": "1.0 / %s" % a, "sqrt": "_sqrt(%s)" % a,
                  "rsqrt": "1.0 / _sqrt(%s)" % a,
                  "sin": "_sin(%s)" % a, "cos": "_cos(%s)" % a,
                  "ex2": "2.0 ** %s" % a, "lg2": "_log2(%s)" % a}
        if op in ("mad", "fma"):
            return ["%s = %s * %s + %s" % (dst, a, b, c)], ("float", None)
        expr = simple.get(op)
        if expr is None:
            return (["raise _EERR(%r)" % ("unsupported float op %r" % op)],
                    _UNKNOWN)
        return ["%s = %s" % (dst, expr)], ("float", None)

    def _int_lines(self, inst, dst, src, kind):
        op = inst.opcode
        dt = inst.dtype
        bits = dt.bits if dt is not None else 32
        signed = dt.is_signed if dt is not None else False
        m = (1 << bits) - 1
        sb = 1 << (bits - 1)
        m2 = (1 << (2 * bits)) - 1
        s = inst.srcs
        full = ("int", bits)

        def iexpr(k):
            op_ = s[k]
            if isinstance(op_, Imm):
                return repr(int(op_.value))
            return src(op_, "int")

        def masked(k, limit):
            """True when operand ``k`` is a known int in [0, 2**limit)."""
            op_ = s[k]
            if isinstance(op_, Imm):
                v = op_.value
                return isinstance(v, int) and 0 <= v < (1 << limit)
            kd, mb = kind(op_)
            return kd == "int" and mb is not None and mb <= limit

        def wrapped(k):
            """Src ``k`` wrapped (or sign-extended) to ``bits``, inline."""
            op_ = s[k]
            if isinstance(op_, Imm):
                v = int(op_.value) & m
                if signed and v >> (bits - 1):
                    v -= 1 << bits
                return repr(v)
            e = src(op_, "int")
            if signed:
                if masked(k, bits - 1):
                    return e  # narrower than the sign bit: already itself
                return "(((%s & %#x) ^ %#x) - %#x)" % (e, m, sb, sb)
            if masked(k, bits):
                return e
            return "(%s & %#x)" % (e, m)

        if op == "add":
            return (["%s = (%s + %s) & %#x" % (dst, iexpr(0), iexpr(1), m)],
                    full)
        if op == "sub":
            return (["%s = (%s - %s) & %#x" % (dst, iexpr(0), iexpr(1), m)],
                    full)
        if op == "mul":
            if inst.mul_mode == "wide":
                return (["%s = (%s * %s) & %#x"
                         % (dst, wrapped(0), wrapped(1), m2)],
                        ("int", 2 * bits))
            if inst.mul_mode == "hi":
                return (["%s = ((%s * %s) >> %d) & %#x"
                         % (dst, wrapped(0), wrapped(1), bits, m)], full)
            return (["%s = (%s * %s) & %#x" % (dst, iexpr(0), iexpr(1), m)],
                    full)
        if op == "mad":
            if inst.mul_mode == "wide":
                return (["%s = (%s * %s + %s) & %#x"
                         % (dst, wrapped(0), wrapped(1), iexpr(2), m2)],
                        ("int", 2 * bits))
            return (["%s = (%s * %s + %s) & %#x"
                     % (dst, iexpr(0), iexpr(1), iexpr(2), m)], full)
        if op in ("div", "rem", "min", "max"):
            fn = {"div": "_tdiv(%s, %s)", "rem": "_trem(%s, %s)",
                  "min": "min(%s, %s)", "max": "max(%s, %s)"}[op]
            return ([("%s = (" + fn + ") & %#x")
                     % (dst, wrapped(0), wrapped(1), m)], full)
        if op == "abs":
            if masked(0, bits - 1):  # nonnegative: abs is the identity
                return ["%s = %s" % (dst, iexpr(0))], kind(s[0])
            return (["%s = abs(((%s & %#x) ^ %#x) - %#x) & %#x"
                     % (dst, iexpr(0), m, sb, sb, m)], full)
        if op == "neg":
            return ["%s = (-%s) & %#x" % (dst, iexpr(0), m)], full
        if op in ("and", "or", "xor"):
            sym = {"and": "&", "or": "|", "xor": "^"}[op]
            if masked(0, bits) and masked(1, bits):
                return (["%s = %s %s %s"
                         % (dst, iexpr(0), sym, iexpr(1))], full)
            return (["%s = (%s %s %s) & %#x"
                     % (dst, iexpr(0), sym, iexpr(1), m)], full)
        if op == "not":
            return ["%s = (~%s) & %#x" % (dst, iexpr(0), m)], full
        if op in ("shl", "shr"):
            lines = []
            amt = s[1]
            if isinstance(amt, Imm):  # fold the wrap-and-clamp at codegen
                sh = int(amt.value) & _U64_MASK
                shs = repr(bits if sh > bits else sh)
            else:
                t = self._fresh("t")
                if masked(1, 64):
                    lines.append("%s = %s" % (t, iexpr(1)))
                else:
                    lines.append("%s = %s & %#x" % (t, iexpr(1), _U64_MASK))
                lines.append("%s = %d if %s > %d else %s"
                             % (t, bits, t, bits, t))
                shs = t
            if op == "shl":
                lines.append("%s = (%s << %s) & %#x"
                             % (dst, iexpr(0), shs, m))
            elif signed:
                if masked(0, bits - 1):  # nonnegative: plain shift
                    lines.append("%s = %s >> %s" % (dst, iexpr(0), shs))
                else:
                    lines.append(
                        "%s = ((((%s & %#x) ^ %#x) - %#x) >> %s) & %#x"
                        % (dst, iexpr(0), m, sb, sb, shs, m))
            else:
                lines.append("%s = %s >> %s" % (dst, wrapped(0), shs))
            return lines, full
        return (["raise _EERR(%r)" % ("unsupported integer op %r" % op)],
                _UNKNOWN)

    # -- memory instructions -----------------------------------------------

    def _emit_memory(self, idx):
        """One memory instruction as its own lane loop (instruction-
        major order, like the scalar engine)."""
        inst = self.insts[idx]
        dt = inst.dtype
        width = dt.nbytes
        memref = inst.memref
        base = memref.base
        ln, ad = "_ln%d" % idx, "_ad%d" % idx

        if isinstance(base, Reg):
            aexpr = "%s[l]" % self.reg_list(base.name)
            if self.reg_kind.get(base.name, _UNKNOWN)[0] != "int":
                aexpr = "int(%s)" % aexpr
        elif isinstance(base, Imm):
            aexpr = repr(int(base.value))
        elif isinstance(base, SReg):
            aexpr = "%s[l]" % self.sreg_list(base.name)
        else:
            aexpr = None  # scalar raises EmulationError for Sym bases
        if aexpr is not None and memref.offset:
            aexpr = "%s + %d" % (aexpr, memref.offset)

        def vsrc(op_):
            """A store/atomic source operand inside the memory loop
            (no fused locals here — registers come from their lists)."""
            if isinstance(op_, Imm):
                return repr(op_.value)
            if isinstance(op_, Reg):
                return "%s[l]" % self.reg_list(op_.name)
            if isinstance(op_, SReg):
                return "%s[l]" % self.sreg_list(op_.name)
            raise EmulationError("unsupported source operand %r" % (op_,))

        def vkind(op_):
            if isinstance(op_, Reg):
                return self.reg_kind.get(op_.name, _UNKNOWN)
            if isinstance(op_, SReg):
                return ("int", None)
            return _UNKNOWN

        predicated = inst.pred is not None
        inner = []
        if aexpr is None:
            inner.append("raise _EERR(%r)"
                         % ("cannot address through %r" % (base,)))
        else:
            inner.append("a = %s" % aexpr)
            if predicated:
                # the executing lane subset is data-dependent
                inner.append("%s.append(l)" % ln)
            inner.append("_ada(a)")

        is_store = inst.is_store
        vals = "_vl%d" % idx
        if aexpr is not None and inst.is_load:
            acc = self.accessor(inst.space, dt, store=False)
            for k, d in enumerate(inst.dests):
                dl = self.reg_list(d.name)
                addr = "a" if k == 0 else "a + %d" % (k * width)
                inner.append("%s[l] = %s(%s)" % (dl, acc, addr))
        elif aexpr is not None and is_store:
            acc = self.accessor(inst.space, dt, store=True)
            for k, vop in enumerate(inst.srcs[1:]):
                addr = "a" if k == 0 else "a + %d" % (k * width)
                if isinstance(vop, Imm):
                    coerced = _coerce_store(vop.value, dt)
                    if dt.is_float:
                        enc = int.from_bytes(_pack_d(coerced), "little")
                    else:
                        enc = coerced & _U64_MASK
                    inner.append("_vla(%#x)" % enc)
                    inner.append("%s(%s, %r)" % (acc, addr, coerced))
                    continue
                kd, mb = vkind(vop)
                if dt.is_float:
                    if kd == "float":
                        ve = vsrc(vop)
                        inner.append('_vla(_ifb(_pack_d(%s), "little"))'
                                     % ve)
                        inner.append("%s(%s, %s)" % (acc, addr, ve))
                        continue
                    t = self._fresh("t")
                    inner.append("%s = float(%s)" % (t, vsrc(vop)))
                    inner.append('_vla(_ifb(_pack_d(%s), "little"))' % t)
                    inner.append("%s(%s, %s)" % (acc, addr, t))
                    continue
                # a value already known to fit (and, for signed types,
                # to be nonnegative) is its own coercion and encoding
                fit = dt.bits - 1 if dt.is_signed else dt.bits
                if kd == "int" and mb is not None and mb <= fit:
                    ve = vsrc(vop)
                    inner.append("_vla(%s)" % ve)
                    inner.append("%s(%s, %s)" % (acc, addr, ve))
                    continue
                t = self._fresh("t")
                m = (1 << dt.bits) - 1
                ie = vsrc(vop)
                if kd not in ("int", "bool"):
                    ie = "int(%s)" % ie
                inner.append("%s = %s & %#x" % (t, ie, m))
                if dt.is_signed:
                    sb, c = 1 << (dt.bits - 1), 1 << dt.bits
                    inner.append("%s = %s - %d if %s >= %d else %s"
                                 % (t, t, c, t, sb, t))
                    inner.append("_vla(%s & _U64M)" % t)
                else:
                    inner.append("_vla(%s)" % t)
                inner.append("%s(%s, %s)" % (acc, addr, t))
        elif aexpr is not None:  # atomic (``red`` writes no old value back)
            lacc = self.accessor(inst.space, dt, store=False)
            sacc = self.accessor(inst.space, dt, store=True)
            dtv = self.bind(dt, "dt")
            dl = (self.reg_list(inst.dests[0].name) if inst.dests else None)
            inner.append("old = %s(a)" % lacc)
            inner.append("o1 = %s" % vsrc(inst.srcs[1]))
            o2 = "None"
            if len(inst.srcs) > 2:
                inner.append("o2 = %s" % vsrc(inst.srcs[2]))
                o2 = "o2"
            if dt.is_signed:
                m, sb = (1 << dt.bits) - 1, 1 << (dt.bits - 1)
                inner.append("o1 = ((int(o1) & %#x) ^ %#x) - %#x"
                             % (m, sb, sb))
                if o2 != "None":
                    inner.append("o2 = ((int(o2) & %#x) ^ %#x) - %#x"
                                 % (m, sb, sb))
            inner.append("new = _atom(%r, old, o1, %s, %s)"
                         % (inst.atom_op, o2, dtv))
            inner.append("%s(a, _coerce(new, %s))" % (sacc, dtv))
            if dl is not None:
                inner.append("%s[l] = old" % dl)

        if predicated:
            out = ["%s = []" % ln, "%s = []" % ad]
        else:
            # every live lane executes, so the lane column is just the
            # live-lane tuple; only addresses are built in the loop
            out = ["%s = list(lanes)" % ln, "%s = []" % ad]
        out.append("_ada = %s.append" % ad)
        if is_store:
            out.append("%s = []" % vals)
            out.append("_vla = %s.append" % vals)
        mask_expr = "live"
        loop = []
        if predicated:
            preg, negated = inst.pred
            pm = "_pm%d" % idx
            out.append("%s = 0" % pm)
            mask_expr = pm
            pl = "%s[l]" % self.reg_list(preg.name)
            loop.append("for l in lanes:")
            loop.append("    if %s:" % (("not " + pl) if negated else pl))
            loop.append("        %s |= 1 << l" % pm)
            loop.extend("        " + line for line in inner)
        else:
            loop.append("for l in lanes:")
            loop.extend("    " + line for line in inner)
        out.append("try:")
        out.extend("    " + line for line in loop)
        out.append("except _MERR as e:")
        if predicated:
            out.append("    if e.lane is None and %s:" % ln)
            out.append("        e.lane = %s[-1]" % ln)
        else:
            # addresses append just before the access, so the faulting
            # lane is the one whose address went in last
            out.append("    if e.lane is None and %s:" % ad)
            out.append("        e.lane = %s[len(%s) - 1]" % (ln, ad))
        out.append("    e._idx = %d" % idx)
        out.append("    raise")
        out.append("record.append_memory(%d, %s, %d, %s, %s%s)"
                   % (inst.pc, mask_expr, op_kind(inst), ln, ad,
                      (", " + vals) if is_store else ""))
        if aexpr is not None and inst.dests and not is_store:
            if dt.is_float:
                nk = ("float", None)
            elif dt.is_signed:
                nk = ("int", None)  # signed unpack can yield negatives
            else:
                nk = ("int", dt.bits)
            for d in inst.dests:
                if predicated:
                    self.reg_kind[d.name] = _merge_kind(
                        self.reg_kind.get(d.name, _UNKNOWN), nk)
                else:
                    self.reg_kind[d.name] = nk
        return out
