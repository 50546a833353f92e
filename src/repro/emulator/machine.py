"""Functional SIMT emulator for the PTX subset.

Executes a kernel launch the way an SM would, minus timing:

* threads are grouped into warps of 32 that execute in lockstep,
* divergent branches are handled with the classic SIMT reconvergence
  stack, reconverging at the immediate post-dominator of the branch
  (the scheme GPGPU-Sim models),
* ``bar.sync`` synchronizes the warps of a CTA,
* every executed warp instruction is appended to a
  :class:`~repro.emulator.columnar.ColumnarWarpTrace`,
  with per-lane effective addresses for memory operations.

:class:`Emulator` is the only SIMT driver: it owns the reconvergence
stack, branches, ``exit``, ``bar.sync``, ``membar``, the watchdog and
fault attribution.  An engine is a data plane that runs one straight-line
run of non-control instructions at a time (see :class:`_ScalarEngine`).

The emulator is *functionally correct* — workload tests compare its memory
state against host reference implementations — and its traces
drive the timing simulator in :mod:`repro.sim`.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .._bits import lanes_of as _lanes_of
from ..obs import tracing
from ..obs.metrics import get_registry
from ..ptx.isa import Imm, Reg, Space, SReg
from ..resilience.guards import check_memory_budget
from .columnar import ColumnarLaunchTrace, kernel_table
from .grid import FULL_MASK, WARP_SIZE, LaunchConfig, as_dim3
from .memory import MemoryError_, SharedMemory

#: Bumped whenever emulation semantics change in a way that can alter
#: produced traces; part of the trace-cache key (see
#: :mod:`repro.emulator.trace_cache`).
EMULATOR_VERSION = 3

#: The warp-execution engines ``Emulator(engine=...)`` accepts; the CLI
#: ``--engine`` flags, service requests and engine fault injection all
#: read this table.
ENGINES = ("vectorized", "scalar", "compiled")

#: Engine used when ``Emulator(engine=None)``: the NumPy
#: structure-of-arrays fast path by default, overridable via the
#: ``REPRO_ENGINE`` environment variable.
DEFAULT_ENGINE = os.environ.get("REPRO_ENGINE") or "vectorized"

#: Per-launch warp-instruction watchdog budget used when neither the
#: ``Emulator(max_warp_insts=...)`` argument nor the
#: ``REPRO_EMULATOR_MAX_WARP_INSTS`` environment variable is set.
DEFAULT_MAX_WARP_INSTS = 20_000_000


def _default_max_warp_insts():
    env = os.environ.get("REPRO_EMULATOR_MAX_WARP_INSTS")
    if env:
        try:
            return int(env)
        except ValueError:
            raise ValueError(
                "REPRO_EMULATOR_MAX_WARP_INSTS must be an integer, got %r"
                % (env,)) from None
    return DEFAULT_MAX_WARP_INSTS


class EmulationError(Exception):
    """Raised on runaway kernels, barrier deadlocks or bad operands."""


class MemoryFaultError(EmulationError):
    """An out-of-bounds or misaligned access, with full launch context.

    Carries structured fields (``kernel``, ``pc``, ``cta``, ``warp``,
    ``lane``, ``address``, ``space``) so failure manifests and tests can
    report *where* a kernel faulted without parsing the message.
    """

    def __init__(self, detail, *, kernel=None, pc=None, cta=None,
                 warp=None, lane=None, address=None, space=None):
        self.kernel = kernel
        self.pc = pc
        self.cta = cta
        self.warp = warp
        self.lane = lane
        self.address = address
        self.space = space
        self.detail = detail
        where = []
        if kernel is not None:
            where.append("kernel %r" % kernel)
        if pc is not None:
            where.append("pc=%#x" % pc)
        if cta is not None:
            where.append("cta %d" % cta)
        if warp is not None:
            where.append("warp %d" % warp)
        if lane is not None:
            where.append("lane %d" % lane)
        if address is not None:
            where.append("addr %#x" % address)
        if space is not None:
            where.append("space %s" % space)
        super().__init__("memory fault (%s): %s" % (", ".join(where), detail))


class WatchdogError(EmulationError):
    """The per-launch warp-instruction budget was exhausted (runaway or
    non-terminating kernel)."""

    def __init__(self, budget, kernel=None, pc=None, cta=None, warp=None):
        self.budget = budget
        self.kernel = kernel
        self.pc = pc
        self.cta = cta
        self.warp = warp
        super().__init__(
            "instruction budget exceeded (%d) in kernel %r at pc=%#x "
            "(cta %s, warp %s); raise REPRO_EMULATOR_MAX_WARP_INSTS or "
            "Emulator(max_warp_insts=...) if the kernel is legitimately "
            "long-running" % (budget, kernel, pc, cta, warp))


class BarrierDeadlockError(EmulationError):
    """Every live warp of a CTA is stuck, but not all at a barrier.

    ``warp_status`` lists one dict per unfinished warp with its
    ``warp`` id, ``at_barrier`` flag, and current ``pc`` (None once past
    the last instruction), so the report shows exactly which warps never
    arrived.
    """

    def __init__(self, kernel, cta, warp_status):
        self.kernel = kernel
        self.cta = cta
        self.warp_status = warp_status
        lines = ["barrier deadlock in kernel %r (CTA %d):" % (kernel, cta)]
        for st in warp_status:
            pc = st.get("pc")
            lines.append("  warp %d: %s, pc=%s" % (
                st["warp"],
                "waiting at barrier" if st["at_barrier"] else "stuck",
                "%#x" % pc if pc is not None else "<end>"))
        super().__init__("\n".join(lines))


def _fault_lane(addresses, fault_addr, width, count):
    """Best-effort lane attribution for a memory fault: the lane whose
    effective address range covers the faulting address."""
    if fault_addr is None:
        return addresses[-1][0] if addresses else None
    span = max(width * max(count, 1), 1)
    for lane, addr in addresses:
        if addr <= fault_addr < addr + span:
            return lane
    return addresses[-1][0] if addresses else None


#: Sentinel "reconverge never" PC index (divergence that only rejoins at exit).
_NEVER = -0xDEAD


def _wrap(value, bits):
    return value & ((1 << bits) - 1)


def _sx(value, bits):
    """Interpret an unsigned bit pattern as a signed integer."""
    value &= (1 << bits) - 1
    if value >> (bits - 1):
        return value - (1 << bits)
    return value


def _trunc_div(a, b):
    """C-style truncating integer division (PTX ``div`` semantics)."""
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _trunc_rem(a, b):
    return a - b * _trunc_div(a, b)


def _is_control(inst):
    """Instructions the driver executes itself: they change the SIMT
    stack, the warp's live lanes or its barrier state."""
    return (inst.is_branch or inst.is_exit or inst.is_barrier
            or inst.opcode == "membar")


def _run_ends(kernel):
    """``ends[i]``: one past the last instruction of the straight-line
    run that starts at index ``i`` of ``kernel``.

    A run stops before any control instruction and before any branch's
    reconvergence index, so the driver sees every point where the SIMT
    stack can change; ``ends[i] == i`` for a control instruction.  A
    fact of the kernel (:meth:`~repro.ptx.module.Kernel.fact`): built
    once, shared by every launch.
    """
    insts, cfg = kernel.instructions, kernel.cfg
    stops = {cfg.reconvergence_index(i)
             for i, inst in enumerate(insts) if inst.is_branch}
    ends = [0] * len(insts)
    nxt = len(insts)
    for i in range(len(insts) - 1, -1, -1):
        control = _is_control(insts[i])
        ends[i] = i if control else nxt
        if control or i in stops:
            nxt = i
    return ends


class WarpState:
    """Execution state of one warp: the engine's register files plus the
    driver's SIMT stack and barrier flag."""

    __slots__ = ("warp_id", "regs", "sregs", "stack", "done_mask",
                 "at_barrier", "trace", "init_mask")

    def __init__(self, warp_id, init_mask, regs, sregs, trace):
        self.warp_id = warp_id
        self.regs = regs                       # engine-specific layout
        self.sregs = sregs                     # engine-specific layout
        self.stack = [[_NEVER, 0, init_mask]]  # [reconv_idx, pc_idx, mask]
        self.done_mask = FULL_MASK & ~init_mask
        self.at_barrier = False
        self.trace = trace
        self.init_mask = init_mask

    @property
    def finished(self):
        return not self.stack


class _ScalarEngine:
    """The reference per-lane interpreter (the differential-test oracle).

    Executes every instruction with Python loops over the live lanes of
    the warp — simple, obviously correct, and slow.  Registers are one
    ``dict`` per lane.  The other engines must produce byte-identical
    serialized traces; ``tests/emulator/test_engine_differential.py``
    enforces that over the whole workload suite.

    An engine is a data plane: ``make_registers`` lays out a warp's
    register files, ``pred_mask`` evaluates a guard predicate, and
    ``run`` executes one straight-line run for fixed live lanes.
    """

    name = "scalar"

    def make_registers(self, kernel, sregs):
        """``(regs, sregs)`` for a new warp, from per-lane special-register
        dicts (``None`` for lanes past the end of the CTA)."""
        return [dict() for _ in range(WARP_SIZE)], sregs

    def pred_mask(self, warp, preg, negated, live):
        pmask = 0
        for lane in _lanes_of(live):
            val = bool(warp.regs[lane].get(preg.name, False))
            if val != negated:
                pmask |= 1 << lane
        return pmask

    def run(self, emu, kernel, warp, start, end, live, shared, params):
        """Execute instructions ``[start, end)`` of ``kernel`` — none of
        them control instructions — for the ``live`` lanes of ``warp``.
        A memory fault leaves with the faulting index stamped as
        ``_idx``."""
        insts = kernel.instructions
        try:
            for pc in range(start, end):
                inst = insts[pc]
                exec_mask = live
                if inst.pred is not None:
                    preg, negated = inst.pred
                    exec_mask = self.pred_mask(warp, preg, negated, live)
                if inst.is_memory:
                    self.exec_memory(emu, warp, inst, exec_mask, shared,
                                     params)
                else:
                    self.exec_alu(warp, inst, exec_mask)
        except MemoryError_ as exc:
            exc._idx = pc
            raise

    # ------------------------------------------------------------------ memory

    @staticmethod
    def _address(warp, lane, memref):
        base = memref.base
        if isinstance(base, Reg):
            value = warp.regs[lane].get(base.name, 0)
        elif isinstance(base, Imm):
            value = base.value
        elif isinstance(base, SReg):
            value = warp.sregs[lane][base.name]
        else:
            raise EmulationError("cannot address through %r" % (base,))
        return int(value) + memref.offset

    def exec_memory(self, emu, warp, inst, exec_mask, shared, params):
        space = inst.space
        if space is Space.PARAM:
            # parameter read: value comes from the launch parameters
            value = params[inst.memref.base.name]
            for lane in _lanes_of(exec_mask):
                warp.regs[lane][inst.dests[0].name] = value
            warp.trace.append(inst, exec_mask)
            return

        addresses = []
        values = []
        target = shared if space is Space.SHARED else emu.memory
        try:
            self._exec_memory_lanes(warp, inst, exec_mask, target, addresses,
                                    values)
        except MemoryError_ as exc:
            # the address was appended just before the faulting access
            if exc.lane is None and addresses:
                exc.lane = addresses[-1][0]
            raise
        warp.trace.append(inst, exec_mask, tuple(addresses),
                          tuple(values) if inst.is_store else None)

    def _exec_memory_lanes(self, warp, inst, exec_mask, target, addresses,
                           values):
        memref = inst.memref
        dtype = inst.dtype
        width = dtype.nbytes
        if inst.is_load:
            dest_names = [d.name for d in inst.dests]
            for lane in _lanes_of(exec_mask):
                addr = self._address(warp, lane, memref)
                addresses.append((lane, addr))
                # vector loads move `vector` consecutive elements per lane
                for k, name in enumerate(dest_names):
                    warp.regs[lane][name] = target.load(addr + k * width,
                                                        dtype)
        elif inst.is_store:
            value_ops = inst.srcs[1:]
            for lane in _lanes_of(exec_mask):
                addr = self._address(warp, lane, memref)
                addresses.append((lane, addr))
                for k, value_op in enumerate(value_ops):
                    value = _coerce_store(
                        self._value(warp, lane, value_op), dtype)
                    values.append(value)
                    target.store(addr + k * width, dtype, value)
        elif inst.is_atomic:
            # ``red`` is an atomic with no destination: the old value is
            # computed for the read-modify-write but never written back
            dest = inst.dests[0].name if inst.dests else None
            for lane in _lanes_of(exec_mask):
                addr = self._address(warp, lane, memref)
                addresses.append((lane, addr))
                old = target.load(addr, dtype)
                operand = self._value(warp, lane, inst.srcs[1])
                operand2 = (self._value(warp, lane, inst.srcs[2])
                            if len(inst.srcs) > 2 else None)
                if dtype.is_signed:
                    # register values are unsigned bit patterns; signed
                    # atomics (e.g. atom.min.s32) must compare as signed
                    operand = _sx(int(operand), dtype.bits)
                    if operand2 is not None:
                        operand2 = _sx(int(operand2), dtype.bits)
                new = _atom_result(inst.atom_op, old, operand, operand2,
                                   dtype)
                target.store(addr, dtype, _coerce_store(new, dtype))
                if dest is not None:
                    warp.regs[lane][dest] = old

    # -------------------------------------------------------------------- ALU

    @staticmethod
    def _value(warp, lane, op):
        if isinstance(op, Imm):
            return op.value
        if isinstance(op, Reg):
            return warp.regs[lane].get(op.name, 0)
        if isinstance(op, SReg):
            return warp.sregs[lane][op.name]
        raise EmulationError("unsupported source operand %r" % (op,))

    def exec_alu(self, warp, inst, exec_mask):
        warp.trace.append(inst, exec_mask)
        if not inst.dests:
            return
        dest = inst.dests[0].name
        op = inst.opcode
        dtype = inst.dtype
        for lane in _lanes_of(exec_mask):
            srcs = [self._value(warp, lane, s) for s in inst.srcs]
            warp.regs[lane][dest] = _evaluate(inst, op, dtype, srcs)


def _make_engine(name):
    """Instantiate an execution engine by name."""
    if name == "scalar":
        return _ScalarEngine()
    if name == "vectorized":
        from .vector import VectorEngine
        return VectorEngine()
    if name == "compiled":
        from .compiled import CompiledEngine
        return CompiledEngine()
    raise ValueError("unknown emulator engine %r (choices: %s)"
                     % (name, ", ".join(ENGINES)))


class Emulator:
    """Functionally executes kernel launches against a :class:`MemoryImage`.

    The emulator is the SIMT driver for every engine.  It keeps each
    warp's reconvergence stack, executes branches, ``exit``,
    ``bar.sync`` and ``membar`` itself, counts the watchdog budget and
    attributes memory faults.  ``engine`` (one of :data:`ENGINES`)
    selects only how straight-line runs of other instructions execute:
    ``"vectorized"`` (default) with masked NumPy operations over
    structure-of-arrays register files, ``"scalar"`` with the per-lane
    reference interpreter, ``"compiled"`` with generated Python per run.
    All produce identical traces and memory state.
    """

    def __init__(self, memory, max_warp_insts=None, engine=None):
        self.memory = memory
        self.max_warp_insts = (max_warp_insts if max_warp_insts is not None
                               else _default_max_warp_insts())
        self.engine = engine if engine is not None else DEFAULT_ENGINE
        self._engine = _make_engine(self.engine)
        self._executed = 0

    # ------------------------------------------------------------------ launch

    def launch(self, kernel, grid, block, params):
        """Run one kernel launch to completion; returns its trace.

        Parameters
        ----------
        kernel:
            A finalized :class:`repro.ptx.module.Kernel`.
        grid, block:
            Launch dimensions (int, tuple or :class:`Dim3`).
        params:
            ``{parameter_name: value}`` — pointers are integer device
            addresses from :meth:`MemoryImage.alloc`.
        """
        config = LaunchConfig(grid=as_dim3(grid), block=as_dim3(block))
        missing = [p.name for p in kernel.params if p.name not in params]
        if missing:
            raise EmulationError("launch of %r missing params: %s"
                                 % (kernel.name, ", ".join(missing)))
        cfg = kernel.cfg
        launch_trace = ColumnarLaunchTrace(
            kernel_name=kernel.name, config=config,
            instructions=kernel_table(kernel),
            shared_size=kernel.shared_size)
        self._executed = 0
        self._run_ends = kernel.fact(_run_ends)
        with tracing.span("emulate.launch", kernel=kernel.name,
                          engine=self.engine, ctas=config.num_ctas,
                          threads_per_cta=config.threads_per_cta) as sp:
            # no engine's values depend on NumPy's floating-point warning
            # state, so it is set once per launch rather than per op
            with np.errstate(all="ignore"):
                for cta_linear in range(config.num_ctas):
                    check_memory_budget("emulation of kernel %s"
                                        % kernel.name)
                    self._run_cta(kernel, cfg, config, cta_linear, params,
                                  launch_trace)
            sp.set(warp_insts=self._executed)
        launch_trace.seal()
        # engine-invariant launch telemetry: counts come from the shared
        # driver, so every engine publishes identical series
        registry = get_registry()
        registry.counter(
            "emulator.launches",
            "kernel launches executed by the emulator").inc(
            1, kernel=kernel.name)
        registry.counter(
            "emulator.ctas",
            "CTAs executed by the emulator").inc(
            config.num_ctas, kernel=kernel.name)
        registry.counter(
            "emulator.warp_insts",
            "warp instructions executed by the emulator").inc(
            self._executed, kernel=kernel.name)
        return launch_trace

    # ------------------------------------------------------------------- CTA

    def _run_cta(self, kernel, cfg, config, cta_linear, params, launch_trace):
        shared = SharedMemory(kernel.shared_size)
        nthreads = config.threads_per_cta
        ctaid = config.cta_coords(cta_linear)
        warps = []
        for w in range(config.warps_per_cta):
            lanes = range(w * WARP_SIZE, min((w + 1) * WARP_SIZE, nthreads))
            mask = 0
            sregs = [None] * WARP_SIZE
            for lane_idx, linear_tid in enumerate(lanes):
                mask |= 1 << lane_idx
                tid = config.thread_coords(linear_tid)
                sregs[lane_idx] = self._make_sregs(tid, ctaid, config,
                                                   lane_idx, w)
            regs, sregs = self._engine.make_registers(kernel, sregs)
            warps.append(WarpState(w, mask, regs, sregs,
                                   launch_trace.new_warp(cta_linear, w)))

        # run warps round-robin, releasing barriers when every live warp
        # has arrived
        while True:
            alive = [w for w in warps if not w.finished]
            if not alive:
                break
            executed_before = self._executed
            for warp in alive:
                if warp.at_barrier:
                    continue
                self._run_warp(kernel, cfg, warp, shared, params)
            waiting = [w for w in warps if not w.finished]
            if waiting and all(w.at_barrier for w in waiting):
                for w in waiting:
                    w.at_barrier = False
                continue
            # a full round that executed nothing and released no barrier
            # can never make progress: some warp is stuck short of the
            # barrier its siblings wait at
            if self._executed == executed_before and waiting:
                insts = kernel.instructions
                status = []
                for w in waiting:
                    idx = w.stack[-1][1] if w.stack else None
                    pc = (insts[idx].pc
                          if idx is not None and 0 <= idx < len(insts)
                          else None)
                    status.append({"warp": w.warp_id,
                                   "at_barrier": w.at_barrier,
                                   "pc": pc})
                raise BarrierDeadlockError(kernel.name, cta_linear, status)

    @staticmethod
    def _make_sregs(tid, ctaid, config, laneid, warpid):
        block, grid = config.block, config.grid
        return {
            "%tid.x": tid[0], "%tid.y": tid[1], "%tid.z": tid[2],
            "%ntid.x": block.x, "%ntid.y": block.y, "%ntid.z": block.z,
            "%ctaid.x": ctaid[0], "%ctaid.y": ctaid[1], "%ctaid.z": ctaid[2],
            "%nctaid.x": grid.x, "%nctaid.y": grid.y, "%nctaid.z": grid.z,
            "%laneid": laneid, "%warpid": warpid,
            "%smid": 0, "%gridid": 0,
        }

    # ------------------------------------------------------------------- warp

    def _run_warp(self, kernel, cfg, warp, shared, params):
        """Execute ``warp`` until it finishes or consumes a barrier.

        Straight-line runs (see :func:`_run_ends`) go to the engine, cut
        short where the watchdog budget runs out; control instructions
        execute here.
        """
        insts = kernel.instructions
        ends = self._run_ends
        engine = self._engine
        budget = self.max_warp_insts
        stack = warp.stack
        while stack:
            entry = stack[-1]
            rpc, pc, mask = entry
            live = mask & ~warp.done_mask
            if live == 0 or pc == rpc:
                stack.pop()
                continue
            end = ends[pc]
            if self._executed + end - pc > budget:
                end = pc + budget - self._executed
            if end > pc:
                self._executed += end - pc
                try:
                    engine.run(self, kernel, warp, pc, end, live, shared,
                               params)
                except MemoryError_ as exc:
                    inst = insts[exc._idx]
                    raise MemoryFaultError(
                        str(exc), kernel=kernel.name, pc=inst.pc,
                        cta=warp.trace.cta_id, warp=warp.warp_id,
                        lane=exc.lane, address=exc.addr,
                        space=(inst.space.name.lower()
                               if inst.space is not None else None)) from exc
                entry[1] = end
                continue

            # a control instruction, or a run the spent budget cut to nothing
            self._executed += 1
            if self._executed > budget:
                raise WatchdogError(
                    budget, kernel=kernel.name, pc=insts[pc].pc,
                    cta=warp.trace.cta_id, warp=warp.warp_id)
            inst = insts[pc]
            exec_mask = live
            if inst.pred is not None:
                preg, negated = inst.pred
                exec_mask = engine.pred_mask(warp, preg, negated, live)
            warp.trace.append(inst, exec_mask)
            entry[1] = pc + 1
            if inst.is_branch:
                taken = exec_mask
                not_taken = live & ~exec_mask
                target = kernel.target_index(inst)
                if taken == 0:
                    continue
                if not_taken == 0:
                    entry[1] = target
                    continue
                reconv = cfg.reconvergence_index(pc)
                rpc_idx = reconv if reconv is not None else _NEVER
                entry[1] = rpc_idx
                # push fall-through below taken so one path runs first;
                # order does not affect functional results
                stack.append([rpc_idx, pc + 1, not_taken])
                stack.append([rpc_idx, target, taken])
            elif inst.is_exit:
                warp.done_mask |= exec_mask
            elif inst.is_barrier:
                warp.at_barrier = True
                return


# ---------------------------------------------------------------------------
# scalar semantics
# ---------------------------------------------------------------------------


def _coerce_store(value, dtype):
    if dtype.is_float:
        return float(value)
    pattern = _wrap(int(value), dtype.bits)
    if dtype.is_signed:
        # registers hold unsigned bit patterns; reinterpret for packing
        return _sx(pattern, dtype.bits)
    return pattern


def _atom_result(atom_op, old, operand, operand2, dtype):
    if atom_op == "add":
        return old + operand
    if atom_op == "min":
        return min(old, operand)
    if atom_op == "max":
        return max(old, operand)
    if atom_op == "exch":
        return operand
    if atom_op == "and":
        return int(old) & int(operand)
    if atom_op == "or":
        return int(old) | int(operand)
    if atom_op == "xor":
        return int(old) ^ int(operand)
    if atom_op == "inc":
        return 0 if old >= operand else old + 1
    if atom_op == "dec":
        return operand if (old == 0 or old > operand) else old - 1
    if atom_op == "cas":
        return operand2 if old == operand else old
    raise EmulationError("unsupported atomic %r" % atom_op)


def _as_signed_pair(a, b, dtype):
    bits = dtype.bits
    return _sx(int(a), bits), _sx(int(b), bits)


def _compare(cmp_op, a, b, dtype):
    if dtype.is_float:
        fa, fb = float(a), float(b)
    elif cmp_op.endswith("u") and cmp_op not in ("eq", "ne"):
        fa, fb = _wrap(int(a), dtype.bits), _wrap(int(b), dtype.bits)
        cmp_op = cmp_op[:-1]
    elif dtype.is_signed:
        fa, fb = _as_signed_pair(a, b, dtype)
    else:
        fa, fb = _wrap(int(a), dtype.bits), _wrap(int(b), dtype.bits)
    if cmp_op == "eq":
        return fa == fb
    if cmp_op == "ne":
        return fa != fb
    if cmp_op == "lt":
        return fa < fb
    if cmp_op == "le":
        return fa <= fb
    if cmp_op == "gt":
        return fa > fb
    if cmp_op == "ge":
        return fa >= fb
    raise EmulationError("unsupported comparison %r" % cmp_op)


def _evaluate(inst, op, dtype, srcs):
    """Compute the result value of one non-memory instruction for one lane."""
    if op == "mov" or op == "cvta":
        value = srcs[0]
        if dtype is not None and dtype.is_float:
            return float(value)
        if dtype is not None and dtype.is_integer:
            return _wrap(int(value), dtype.bits)
        return value

    if op == "cvt":
        return _convert(inst, dtype, srcs[0])

    if op == "setp":
        return _compare(inst.cmp_op, srcs[0], srcs[1], dtype)

    if op == "selp":
        return srcs[0] if bool(srcs[2]) else srcs[1]

    if dtype is not None and dtype.is_float:
        return _evaluate_float(op, srcs)

    return _evaluate_int(inst, op, dtype, srcs)


def _convert(inst, dest_dtype, value):
    # source type is the second type suffix the parser stashed in modifiers
    src_dtype = None
    for mod in inst.modifiers:
        try:
            from ..ptx.isa import dtype_from_name
            src_dtype = dtype_from_name(mod)
            break
        except Exception:
            continue
    if src_dtype is not None and src_dtype.is_integer and src_dtype.is_signed:
        value = _sx(int(value), src_dtype.bits)
    elif src_dtype is not None and src_dtype.is_integer:
        value = _wrap(int(value), src_dtype.bits)
    if dest_dtype.is_float:
        return float(value)
    return _wrap(int(value), dest_dtype.bits)


def _evaluate_float(op, srcs):
    a = float(srcs[0]) if srcs else 0.0
    b = float(srcs[1]) if len(srcs) > 1 else 0.0
    c = float(srcs[2]) if len(srcs) > 2 else 0.0
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op in ("mad", "fma"):
        return a * b + c
    if op == "div":
        return a / b
    if op == "min":
        return min(a, b)
    if op == "max":
        return max(a, b)
    if op == "abs":
        return abs(a)
    if op == "neg":
        return -a
    if op == "rcp":
        return 1.0 / a
    if op == "sqrt":
        return math.sqrt(a)
    if op == "rsqrt":
        return 1.0 / math.sqrt(a)
    if op == "sin":
        return math.sin(a)
    if op == "cos":
        return math.cos(a)
    if op == "ex2":
        return 2.0 ** a
    if op == "lg2":
        return math.log2(a)
    raise EmulationError("unsupported float op %r" % op)


def _evaluate_int(inst, op, dtype, srcs):
    bits = dtype.bits if dtype is not None else 32
    signed = dtype.is_signed if dtype is not None else False
    ints = [int(v) for v in srcs]

    if op == "add":
        return _wrap(ints[0] + ints[1], bits)
    if op == "sub":
        return _wrap(ints[0] - ints[1], bits)
    if op == "mul":
        if inst.mul_mode == "wide":
            a, b = (_as_signed_pair(ints[0], ints[1], dtype)
                    if signed else (_wrap(ints[0], bits), _wrap(ints[1], bits)))
            return _wrap(a * b, bits * 2)
        if inst.mul_mode == "hi":
            a, b = (_as_signed_pair(ints[0], ints[1], dtype)
                    if signed else (_wrap(ints[0], bits), _wrap(ints[1], bits)))
            return _wrap((a * b) >> bits, bits)
        return _wrap(ints[0] * ints[1], bits)
    if op == "mad":
        if inst.mul_mode == "wide":
            a, b = (_as_signed_pair(ints[0], ints[1], dtype)
                    if signed else (_wrap(ints[0], bits), _wrap(ints[1], bits)))
            return _wrap(a * b + ints[2], bits * 2)
        return _wrap(ints[0] * ints[1] + ints[2], bits)
    if op == "div":
        a, b = (_as_signed_pair(ints[0], ints[1], dtype)
                if signed else (_wrap(ints[0], bits), _wrap(ints[1], bits)))
        return _wrap(_trunc_div(a, b), bits)
    if op == "rem":
        a, b = (_as_signed_pair(ints[0], ints[1], dtype)
                if signed else (_wrap(ints[0], bits), _wrap(ints[1], bits)))
        return _wrap(_trunc_rem(a, b), bits)
    if op == "min":
        a, b = (_as_signed_pair(ints[0], ints[1], dtype)
                if signed else (_wrap(ints[0], bits), _wrap(ints[1], bits)))
        return _wrap(min(a, b), bits)
    if op == "max":
        a, b = (_as_signed_pair(ints[0], ints[1], dtype)
                if signed else (_wrap(ints[0], bits), _wrap(ints[1], bits)))
        return _wrap(max(a, b), bits)
    if op == "abs":
        return _wrap(abs(_sx(ints[0], bits)), bits)
    if op == "neg":
        return _wrap(-ints[0], bits)
    if op == "and":
        return _wrap(ints[0] & ints[1], bits)
    if op == "or":
        return _wrap(ints[0] | ints[1], bits)
    if op == "xor":
        return _wrap(ints[0] ^ ints[1], bits)
    if op == "not":
        return _wrap(~ints[0], bits)
    if op == "shl":
        # PTX reads the shift amount as unsigned and clamps at the
        # register width; wrapping first keeps a negative register
        # value (a huge unsigned) from reaching Python's `<<`.
        shift = min(_wrap(ints[1], 64), bits)
        return _wrap(ints[0] << shift, bits)
    if op == "shr":
        shift = min(_wrap(ints[1], 64), bits)
        if signed:
            return _wrap(_sx(ints[0], bits) >> shift, bits)
        return _wrap(ints[0], bits) >> shift
    raise EmulationError("unsupported integer op %r" % op)
