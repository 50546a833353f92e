"""Backward-dataflow classification of global loads (the paper's Section V).

For every value-producing instruction we compute the :class:`Provenance` of
the value it defines, by a monotone fixpoint over the kernel's reaching
definitions:

* ``ld.param`` / ``ld.const`` define :attr:`Provenance.PARAM` values
  (launch-time parameters);
* ``ld.global`` / ``ld.local`` / ``ld.shared`` / ``ld.tex`` and ``atom``
  define :attr:`Provenance.DATA` values (input-dependent data);
* every other instruction joins the provenance of its source operands,
  where special registers (``%tid``, ``%ctaid``, ...) and immediates
  contribute :attr:`Provenance.PARAM`.

A global load is **deterministic** iff the provenance of its address base
register is purely :attr:`Provenance.PARAM`; otherwise it is
**non-deterministic**.  Alongside the class we record *which* data-load PCs
taint each non-deterministic address, giving the per-load explanation the
paper derives by hand for its Code 1 example.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Tuple

from ..ptx.isa import Imm, Instruction, MemRef, Space, SReg, Sym
from ..ptx.module import Kernel
from .defuse import ENTRY, ReachingDefs
from .provenance import LoadClass, Provenance

_BOTTOM = int(Provenance.BOTTOM)
_PARAM = int(Provenance.PARAM)
_DATA = int(Provenance.DATA)
_ENTRY = int(Provenance.ENTRY)
_NO_TAINT: FrozenSet[int] = frozenset()


@dataclass(frozen=True)
class ClassifiedLoad:
    """Classification record for one static global-load instruction."""

    pc: int
    inst_index: int
    instruction: Instruction
    load_class: LoadClass
    provenance: Provenance
    #: PCs of the data loads / atomics that taint this load's address
    #: (empty for deterministic loads).
    tainting_pcs: Tuple[int, ...]

    @property
    def is_deterministic(self):
        return self.load_class is LoadClass.DETERMINISTIC

    def __str__(self):
        tag = str(self.load_class)
        extra = ""
        if self.tainting_pcs:
            extra = " <- data loads at " + ", ".join(
                "%#x" % pc for pc in self.tainting_pcs)
        return "[%s] %#06x: %s%s" % (tag, self.pc, self.instruction, extra)


@dataclass
class ClassificationResult:
    """All classified global loads of one kernel, with lookup helpers."""

    kernel: Kernel
    loads: List[ClassifiedLoad] = field(default_factory=list)

    def __post_init__(self):
        self._by_pc = {load.pc: load for load in self.loads}

    def class_of(self, pc):
        """The :class:`LoadClass` of the global load at ``pc``."""
        return self._by_pc[pc].load_class

    def get(self, pc):
        return self._by_pc.get(pc)

    @property
    def deterministic(self):
        return [ld for ld in self.loads if ld.is_deterministic]

    @property
    def nondeterministic(self):
        return [ld for ld in self.loads if not ld.is_deterministic]

    def static_fraction_deterministic(self):
        """Fraction of *static* global loads classified deterministic."""
        if not self.loads:
            return 1.0
        return len(self.deterministic) / len(self.loads)

    def __iter__(self):
        return iter(self.loads)

    def __len__(self):
        return len(self.loads)


class LoadClassifier:
    """Classifies a kernel's global loads with backward dataflow analysis."""

    def __init__(self, kernel, cfg=None):
        self.kernel = kernel
        self.cfg = cfg if cfg is not None else kernel.cfg
        self.defuse = ReachingDefs(kernel, self.cfg)
        self._def_prov: List[int] = []
        self._def_taint: List[FrozenSet[int]] = []
        self._solved = False

    # -- provenance fixpoint --------------------------------------------------

    def _initial_def_provenance(self, inst):
        """Provenance bits of the value defined by ``inst`` if it is a
        root, else :attr:`Provenance.BOTTOM` (computed from sources)."""
        if inst.is_load:
            if inst.space in (Space.PARAM, Space.CONST):
                return _PARAM
            return _DATA
        if inst.is_atomic:
            return _DATA
        return _BOTTOM

    def _operand_provenance(self, inst_index, operand):
        """Provenance bits + taint sources contributed by one source
        operand.  Bits are joined as plain ints (a bitwise OR)."""
        if isinstance(operand, (Imm, Sym, SReg)):
            return _PARAM, _NO_TAINT
        if isinstance(operand, MemRef):
            return self._operand_provenance(inst_index, operand.base)
        # a general-purpose register: join over reaching definitions
        prov = _BOTTOM
        taint = _NO_TAINT
        def_prov, def_taint = self._def_prov, self._def_taint
        for def_index in self.defuse.reaching(inst_index, operand):
            if def_index == ENTRY:
                prov |= _ENTRY
            else:
                prov |= def_prov[def_index]
                if def_taint[def_index]:
                    taint = taint | def_taint[def_index]
        return prov, taint

    def _solve(self):
        if self._solved:
            return
        insts = self.kernel.instructions
        self._def_prov = [self._initial_def_provenance(i) for i in insts]
        self._def_taint = [
            frozenset((idx,)) if self._def_prov[idx] == _DATA
            else _NO_TAINT
            for idx in range(len(insts))
        ]
        # the definitions that are not roots: each joins its sources
        derived = [(idx, inst) for idx, inst in enumerate(insts)
                   if self._def_prov[idx] == _BOTTOM
                   and inst.write_reg_names]

        changed = True
        while changed:
            changed = False
            for idx, inst in derived:
                prov = _BOTTOM
                taint = _NO_TAINT
                for src in inst.srcs:
                    p, t = self._operand_provenance(idx, src)
                    prov |= p
                    taint = taint | t
                if not inst.srcs:
                    prov = _PARAM
                if prov != self._def_prov[idx] or taint != self._def_taint[idx]:
                    self._def_prov[idx] = prov
                    self._def_taint[idx] = taint
                    changed = True
        self._solved = True

    # -- public API --------------------------------------------------------------

    def address_provenance(self, inst_index):
        """Provenance + tainting data-load indices of a memory instruction's
        effective address."""
        self._solve()
        inst = self.kernel.instructions[inst_index]
        ref = inst.memref
        if ref is None:
            raise ValueError("instruction at index %d is not a memory op"
                             % inst_index)
        prov, taint = self._operand_provenance(inst_index, ref.base)
        return Provenance(prov), taint

    def classify(self):
        """Classify every global load; returns a :class:`ClassificationResult`."""
        self._solve()
        loads = []
        for idx, inst in enumerate(self.kernel.instructions):
            if not inst.is_global_load:
                continue
            prov, taint = self.address_provenance(idx)
            if prov is Provenance.BOTTOM:
                # address from a literal base: purely parameterized
                prov = Provenance.PARAM
            loads.append(ClassifiedLoad(
                pc=inst.pc,
                inst_index=idx,
                instruction=inst,
                load_class=LoadClass.from_provenance(prov),
                provenance=prov,
                tainting_pcs=tuple(sorted(
                    self.kernel.instructions[t].pc for t in taint)),
            ))
        return ClassificationResult(kernel=self.kernel, loads=loads)


def classify_kernel(kernel):
    """One-shot helper: classify all global loads of ``kernel``."""
    return LoadClassifier(kernel).classify()


def classify_module(module):
    """Classify every kernel in a module; returns ``{name: result}``."""
    return {kernel.name: classify_kernel(kernel) for kernel in module}
