"""Static verification of parsed PTX-subset kernels.

The parser and :class:`~repro.ptx.module.Kernel` catch *structural*
problems (unknown opcodes, malformed operand lists, dangling labels).
This module is the semantic layer on top: a CFG-driven pass that checks
the properties the emulator and the classifier silently assume, and
reports violations as structured :class:`Diagnostic` records instead of
mid-run exceptions:

* operand shape and dtype consistency per opcode (operand counts,
  writable destinations, missing or impossible data types, atomic
  op/dtype combinations, ``mul``/``mad`` width modes);
* defined-before-use registers via reaching definitions (definitely
  undefined reads are errors; reads that are undefined only on *some*
  path — e.g. guarded by the matching predicate — are warnings);
* branch-target and parameter-reference validity, including
  ``ld.param`` accesses wider than the declared parameter;
* barrier well-formedness: a ``bar.sync`` that is guarded by a
  predicate, or that sits in the divergent region of a branch whose
  condition depends on ``%tid``/``%laneid`` or loaded data, can
  deadlock a warp and is flagged;
* unreachable blocks and blocks with no path to ``exit``.

Entry points: :func:`verify_kernel`, :func:`verify_module`, and
``parse_module(text, strict=True)`` which raises
:class:`~repro.ptx.errors.PTXVerificationError` when any error-severity
diagnostic is found.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Set

from .cfg import EXIT_BLOCK
from .errors import PTXVerificationError
from .isa import (
    ATOM_OPS,
    RED_OPS,
    DType,
    Imm,
    MemRef,
    Reg,
    Space,
    SReg,
    Sym,
)


class Severity(enum.Enum):
    """Diagnostic severity: errors fail ``strict`` parsing, warnings don't."""

    WARNING = "warning"
    ERROR = "error"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class Diagnostic:
    """One verifier finding, attributable to a kernel and a PC.

    ``pc`` is the byte PC of the offending instruction, or ``-1`` for
    kernel-level findings (e.g. an unreachable block is attributed to
    its first instruction, so those do carry a PC).
    """

    kernel: str
    pc: int
    severity: Severity
    code: str
    message: str

    def format(self):
        where = ("%s+%#x" % (self.kernel, self.pc)) if self.pc >= 0 \
            else self.kernel
        return "%s: %s: [%s] %s" % (where, self.severity, self.code,
                                    self.message)

    def __str__(self):
        return self.format()


class VerificationReport:
    """All diagnostics produced for a module (or a single kernel)."""

    def __init__(self, diagnostics):
        self.diagnostics: List[Diagnostic] = list(diagnostics)

    def errors(self):
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    def warnings(self):
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def ok(self):
        """True when no error-severity diagnostic was found."""
        return not self.errors()

    def format(self):
        if not self.diagnostics:
            return "verification OK: no diagnostics"
        return "\n".join(d.format() for d in self.diagnostics)

    def __iter__(self):
        return iter(self.diagnostics)

    def __len__(self):
        return len(self.diagnostics)


# ---------------------------------------------------------------------------
# opcode shape tables
# ---------------------------------------------------------------------------

#: exact source-operand counts the emulator's evaluators consume.
_SRC_COUNTS = {
    "mov": (1,), "cvt": (1,), "cvta": (1,),
    "add": (2,), "sub": (2,), "mul": (2,), "div": (2,), "rem": (2,),
    "min": (2,), "max": (2,), "and": (2,), "or": (2,), "xor": (2,),
    "shl": (2,), "shr": (2,),
    "mad": (3,), "fma": (3,),
    "abs": (1,), "neg": (1,), "not": (1,),
    "rcp": (1,), "sqrt": (1,), "rsqrt": (1,),
    "sin": (1,), "cos": (1,), "ex2": (1,), "lg2": (1,),
    "setp": (2,), "selp": (3,),
    "bar": (0, 1), "membar": (0,), "exit": (0,), "ret": (0,),
}

#: opcodes whose missing dtype the emulator tolerates by assuming 32 bits.
_DTYPE_OPTIONAL = frozenset(("mov", "cvta", "bar", "membar", "exit", "ret",
                             "bra"))

#: atomics with integer-only semantics.
_INT_ONLY_ATOMICS = frozenset(("and", "or", "xor", "inc", "dec", "cas"))

#: special registers whose value differs between the lanes of a warp.
_LANE_VARIANT_SREGS = frozenset(("%tid.x", "%tid.y", "%tid.z", "%laneid"))


# ---------------------------------------------------------------------------
# the verifier
# ---------------------------------------------------------------------------


class _KernelVerifier:
    """Runs every check over one finalized kernel."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.cfg = kernel.cfg
        self.diags: List[Diagnostic] = []

    def run(self):
        self._check_instructions()
        self._check_defined_before_use()
        self._check_barriers()
        self._check_cfg()
        return self.diags

    # -- helpers -----------------------------------------------------------

    def _emit(self, inst_or_pc, severity, code, message):
        pc = inst_or_pc if isinstance(inst_or_pc, int) else inst_or_pc.pc
        self.diags.append(Diagnostic(
            kernel=self.kernel.name, pc=pc, severity=severity, code=code,
            message=message))

    def _error(self, inst, code, message):
        self._emit(inst, Severity.ERROR, code, message)

    def _warn(self, inst, code, message):
        self._emit(inst, Severity.WARNING, code, message)

    # -- per-instruction shape and type checks ------------------------------

    def _check_instructions(self):
        for inst in self.kernel.instructions:
            if inst.is_memory:
                self._check_memory(inst)
            elif inst.is_branch:
                self._check_branch(inst)
            else:
                self._check_alu(inst)

    def _check_operand_count(self, inst):
        allowed = _SRC_COUNTS.get(inst.opcode)
        if allowed is None or len(inst.srcs) in allowed:
            return True
        self._error(inst, "operand-count",
                    "%s expects %s source operand(s), got %d"
                    % (inst.opcode, " or ".join(map(str, allowed)),
                       len(inst.srcs)))
        return False

    def _check_dest(self, inst):
        for dest in inst.dests:
            if not isinstance(dest, Reg):
                self._error(inst, "bad-dest",
                            "destination of %s must be a register, got %s"
                            % (inst.opcode, type(dest).__name__.lower()))

    def _check_srcs_are_values(self, inst):
        for op in inst.srcs:
            if isinstance(op, (MemRef, Sym)):
                self._error(inst, "bad-operand",
                            "%s cannot read operand %s directly"
                            % (inst.opcode, op))
            elif isinstance(op, tuple):
                self._error(inst, "bad-operand",
                            "vector operand group is only valid on "
                            "ld/st, not %s" % inst.opcode)

    def _check_alu(self, inst):
        self._check_operand_count(inst)
        self._check_dest(inst)
        self._check_srcs_are_values(inst)
        if inst.opcode in ("exit", "ret", "membar"):
            return
        if inst.dtype is None:
            if inst.opcode not in _DTYPE_OPTIONAL:
                self._error(inst, "missing-dtype",
                            "%s requires a data-type suffix" % inst.opcode)
        elif inst.dtype is DType.PRED:
            if inst.opcode not in ("mov", "not", "and", "or", "xor", "setp",
                                   "selp"):
                self._error(inst, "bad-dtype",
                            "%s cannot operate on .pred values"
                            % inst.opcode)
        if inst.opcode == "setp" and inst.dtype is DType.PRED:
            self._error(inst, "bad-dtype",
                        "setp compares values, not predicates")
        if inst.mul_mode in ("wide", "hi") and inst.dtype is not None \
                and inst.dtype.is_float:
            self._error(inst, "bad-mul-mode",
                        "mul/mad .%s is integer-only, got .%s"
                        % (inst.mul_mode, inst.dtype.value))
        if inst.opcode in ("div", "rem"):
            divisor = inst.srcs[1] if len(inst.srcs) > 1 else None
            if isinstance(divisor, Imm) and divisor.value == 0:
                self._error(inst, "div-by-zero",
                            "%s with a constant zero divisor" % inst.opcode)

    def _check_branch(self, inst):
        # Kernel finalization already rejects missing/unknown targets;
        # re-check so hand-built or mutated kernels get a diagnostic
        # instead of a KeyError at emulation time.
        if inst.target is None:
            self._error(inst, "bad-branch", "bra without a target label")
        elif inst.target not in self.kernel.labels:
            self._error(inst, "bad-branch",
                        "bra to undefined label %r" % inst.target)

    def _check_memory(self, inst):
        if inst.dtype is None:
            self._error(inst, "missing-dtype",
                        "%s.%s requires a data-type suffix"
                        % (inst.opcode, inst.space.value if inst.space
                           else "?"))
        elif inst.dtype is DType.PRED:
            self._error(inst, "bad-dtype",
                        "memory operations cannot move .pred values")
        memref = inst.memref
        if memref is None:
            self._error(inst, "bad-address",
                        "%s without a [address] operand" % inst.opcode)
            return
        if inst.space is Space.PARAM:
            self._check_param_ref(inst, memref)
        elif isinstance(memref.base, Sym):
            self._error(inst, "bad-address-base",
                        "cannot address %s space through symbol %r"
                        % (inst.space.value, memref.base.name))
        if inst.is_atomic:
            self._check_atomic(inst)
        self._check_dest(inst)

    def _check_param_ref(self, inst, memref):
        if not inst.is_load:
            self._error(inst, "bad-space",
                        "%s cannot target the param space" % inst.opcode)
            return
        if not isinstance(memref.base, Sym):
            # Kernel._validate also rejects this; keep a diagnostic path.
            self._error(inst, "bad-address-base",
                        "ld.param must address a named parameter")
            return
        try:
            param = self.kernel.param(memref.base.name)
        except Exception:
            self._error(inst, "bad-param",
                        "unknown parameter %r" % memref.base.name)
            return
        if inst.dtype is None:
            return
        width = inst.dtype.nbytes * inst.vector
        if memref.offset + width > param.dtype.nbytes:
            self._error(inst, "param-width",
                        "ld.param.%s reads %d byte(s) at offset %d of "
                        "%d-byte parameter %r"
                        % (inst.dtype.value, width, memref.offset,
                           param.dtype.nbytes, param.name))

    def _check_atomic(self, inst):
        allowed = RED_OPS if inst.opcode == "red" else ATOM_OPS
        if inst.atom_op not in allowed:
            self._error(inst, "bad-atomic",
                        "unsupported %s operation %r"
                        % (inst.opcode, inst.atom_op))
            return
        if inst.dtype is not None and inst.dtype.is_float \
                and inst.atom_op in _INT_ONLY_ATOMICS:
            self._error(inst, "atomic-dtype",
                        "%s.%s is integer-only, got .%s"
                        % (inst.opcode, inst.atom_op, inst.dtype.value))
        needed = 3 if inst.atom_op == "cas" else 2
        if len(inst.srcs) < needed:
            self._error(inst, "operand-count",
                        "%s.%s expects %d operand(s) after the address"
                        % (inst.opcode, inst.atom_op, needed - 1))
        if inst.opcode == "red" and inst.dests:
            self._error(inst, "bad-dest",
                        "red returns no value but has a destination")

    # -- dataflow: defined before use ---------------------------------------

    def _check_defined_before_use(self):
        # local import: repro.core depends on repro.ptx, so pulling the
        # reaching-definitions machinery in at module import time would
        # create a cycle with the package __init__.
        from ..core.defuse import ENTRY, ReachingDefs

        defs = ReachingDefs(self.kernel, cfg=self.cfg)
        reachable = self._reachable_blocks()
        for index, inst in enumerate(self.kernel.instructions):
            if self.cfg.block_of(index).index not in reachable:
                continue  # unreachable code gets its own diagnostic
            for reg in inst.reads():
                if not isinstance(reg, Reg):
                    continue
                sites = defs.reaching(index, reg)
                if ENTRY not in sites:
                    continue
                if sites == frozenset((ENTRY,)):
                    self._error(inst, "undefined-register",
                                "register %s is read but never defined"
                                % reg.name)
                else:
                    self._warn(inst, "maybe-undefined-register",
                               "register %s may be read before definition "
                               "on some path" % reg.name)

    # -- barriers ------------------------------------------------------------

    def _uniform_registers(self):
        """Registers whose value is provably identical across the lanes
        of a warp: derived only from CTA-uniform special registers,
        immediates and kernel parameters.  Conservative fixpoint — any
        loaded or lane-variant input makes the result non-uniform."""
        # Optimistic start (every written register uniform), then a
        # removal-only fixpoint: a register becomes non-uniform when any
        # of its definitions has a non-uniform input.  Monotone, so the
        # loop terminates in O(defs * registers).
        uniform: Set[str] = set()
        for inst in self.kernel.instructions:
            for dest in inst.dests:
                if isinstance(dest, Reg):
                    uniform.add(dest.name)
        changed = True
        while changed:
            changed = False
            for inst in self.kernel.instructions:
                if not inst.dests:
                    continue
                if inst.is_memory:
                    src_ok = inst.is_param_load
                elif inst.is_branch or inst.is_exit:
                    continue
                else:
                    src_ok = all(self._operand_uniform(op, uniform)
                                 for op in inst.srcs)
                if inst.pred is not None and inst.pred[0].name not in uniform:
                    src_ok = False
                if src_ok:
                    continue
                for dest in inst.dests:
                    if isinstance(dest, Reg) and dest.name in uniform:
                        uniform.discard(dest.name)
                        changed = True
        return uniform

    @staticmethod
    def _operand_uniform(op, uniform):
        if isinstance(op, Imm):
            return True
        if isinstance(op, SReg):
            return op.name not in _LANE_VARIANT_SREGS
        if isinstance(op, Reg):
            return op.name in uniform
        return False

    def _divergent_region(self):
        """Block indices that may execute with a partially-active warp:
        every block strictly between a potentially-divergent branch and
        its reconvergence point."""
        uniform = self._uniform_registers()
        region: Set[int] = set()
        insts = self.kernel.instructions
        for index, inst in enumerate(insts):
            divergent = False
            if inst.is_branch and inst.pred is not None \
                    and inst.pred[0].name not in uniform:
                divergent = True
            if not divergent:
                continue
            reconv = self.cfg.reconvergence_index(index)
            stop = self.cfg.block_of(reconv).index if reconv is not None \
                else EXIT_BLOCK
            branch_block = self.cfg.block_of(index)
            frontier = list(branch_block.successors)
            seen = set()
            while frontier:
                b = frontier.pop()
                if b in seen or b == stop:
                    continue
                seen.add(b)
                region.add(b)
                frontier.extend(self.cfg.blocks[b].successors)
        return region

    def _check_barriers(self):
        barriers = [(i, inst) for i, inst in enumerate(self.kernel.instructions)
                    if inst.is_barrier]
        if not barriers:
            return
        divergent = self._divergent_region()
        for index, inst in enumerate(self.kernel.instructions):
            if not inst.is_barrier:
                continue
            if inst.pred is not None:
                self._warn(inst, "predicated-barrier",
                           "bar.sync under predicate %s%s may not be "
                           "reached by all threads"
                           % ("!" if inst.pred[1] else "", inst.pred[0]))
            if self.cfg.block_of(index).index in divergent:
                self._warn(inst, "divergent-barrier",
                           "bar.sync inside a potentially thread-divergent "
                           "region (branch condition depends on %tid or "
                           "loaded data)")

    # -- CFG-level checks -----------------------------------------------------

    def _reachable_blocks(self):
        seen = {0}
        frontier = [0]
        while frontier:
            b = frontier.pop()
            for s in self.cfg.blocks[b].successors:
                if s not in seen:
                    seen.add(s)
                    frontier.append(s)
        return seen

    def _check_cfg(self):
        reachable = self._reachable_blocks()
        exit_capable = self._blocks_reaching_exit()
        for block in self.cfg.blocks:
            first = self.kernel.instructions[block.start]
            if block.index not in reachable:
                self._warn(first, "unreachable",
                           "block starting at pc=%#x is unreachable"
                           % first.pc)
            elif block.index not in exit_capable:
                self._warn(first, "no-exit-path",
                           "block starting at pc=%#x cannot reach "
                           "exit (infinite loop?)" % first.pc)

    def _blocks_reaching_exit(self):
        exits = {b.index for b in self.cfg.exit_blocks()}
        preds = {b.index: list(b.predecessors) for b in self.cfg.blocks}
        seen = set(exits)
        frontier = list(exits)
        while frontier:
            b = frontier.pop()
            for p in preds[b]:
                if p not in seen:
                    seen.add(p)
                    frontier.append(p)
        return seen


def verify_kernel(kernel):
    """Verify one kernel; returns a list of :class:`Diagnostic`."""
    return _KernelVerifier(kernel).run()


def verify_module(module):
    """Verify every kernel of a module; returns a
    :class:`VerificationReport`."""
    diags: List[Diagnostic] = []
    for kernel in module:
        diags.extend(verify_kernel(kernel))
    return VerificationReport(diags)


def check_module(module):
    """Verify and raise :class:`PTXVerificationError` on any error."""
    report = verify_module(module)
    if not report.ok:
        raise PTXVerificationError(report)
    return report
