"""Kernel and module containers for the PTX subset.

A :class:`Kernel` is a finalized, flat instruction list with labels resolved
to instruction indices and byte PCs assigned.  It is the unit both the
dataflow classifier (:mod:`repro.core`) and the functional emulator
(:mod:`repro.emulator`) consume.

A finalized kernel does not change, so whatever is derived from it
alone (its CFG, the emulator's straight-line runs, the trace columns'
per-instruction tables) is built once, on first use, and held by the
kernel itself (:meth:`Kernel.fact`): every launch, the classifier and
the emulator share one copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from .cfg import CFG
from .errors import PTXValidationError
from .isa import PC_STRIDE, DType, Instruction, Sym


@dataclass(frozen=True)
class Param:
    """A kernel parameter as declared in the ``.entry`` signature.

    ``offset`` is the parameter's byte offset in the kernel parameter
    space; ``ld.param`` memrefs address parameters by symbol + offset.
    """

    name: str
    dtype: DType
    offset: int
    is_pointer: bool = False


class Kernel:
    """A finalized PTX-subset kernel.

    Parameters
    ----------
    name:
        Kernel (entry) name.
    params:
        Declared parameters, in order.
    instructions:
        Flat instruction list.  PCs are assigned here.
    labels:
        Mapping from label name to the index of the instruction the label
        precedes.
    shared_size:
        Bytes of statically declared ``.shared`` memory per CTA.
    """

    def __init__(self, name, params, instructions, labels, shared_size=0):
        self.name = name
        self.params: List[Param] = list(params)
        self.instructions: List[Instruction] = list(instructions)
        self.labels: Dict[str, int] = dict(labels)
        self.shared_size = shared_size
        self._param_by_name = {p.name: p for p in self.params}
        self._assign_pcs()
        self._validate()
        self._pc_index = {inst.pc: i for i, inst in enumerate(self.instructions)}
        self._facts = {}

    # -- construction helpers ----------------------------------------------

    def _assign_pcs(self):
        for i, inst in enumerate(self.instructions):
            inst.pc = i * PC_STRIDE

    def _validate(self):
        if not self.instructions:
            raise PTXValidationError("kernel %r has no instructions" % self.name)
        for label, idx in self.labels.items():
            if not 0 <= idx < len(self.instructions):
                raise PTXValidationError(
                    "label %r points outside kernel %r" % (label, self.name))
        for inst in self.instructions:
            if inst.is_branch:
                if inst.target is None:
                    raise PTXValidationError("bra without target at pc=%#x" % inst.pc)
                if inst.target not in self.labels:
                    raise PTXValidationError(
                        "undefined label %r in kernel %r" % (inst.target, self.name))
            if inst.is_param_load:
                ref = inst.memref
                if ref is None or not isinstance(ref.base, Sym):
                    raise PTXValidationError(
                        "ld.param must address a named parameter (pc=%#x)" % inst.pc)
                if ref.base.name not in self._param_by_name:
                    raise PTXValidationError(
                        "unknown parameter %r in kernel %r" % (ref.base.name, self.name))
        if not self.instructions[-1].is_exit:
            raise PTXValidationError(
                "kernel %r must end with exit/ret" % self.name)

    # -- derived facts -------------------------------------------------------

    def fact(self, build):
        """``build(self)``, computed on the first call and then returned
        from the kernel for every later call with the same ``build``.

        ``build`` must be a module-level function (or class) of the
        kernel alone; the kernel keeps the result as long as it lives.
        """
        facts = self._facts
        try:
            return facts[build]
        except KeyError:
            value = facts[build] = build(self)
            return value

    @property
    def cfg(self):
        """The kernel's :class:`~repro.ptx.cfg.CFG`, built once."""
        return self.fact(CFG)

    # -- queries -------------------------------------------------------------

    def param(self, name):
        """Look up a declared parameter by name."""
        try:
            return self._param_by_name[name]
        except KeyError:
            raise PTXValidationError(
                "kernel %r has no parameter %r" % (self.name, name)) from None

    def index_of_pc(self, pc):
        """Instruction index for a byte PC."""
        try:
            return self._pc_index[pc]
        except KeyError:
            raise PTXValidationError("no instruction at pc=%#x" % pc) from None

    def instruction_at(self, pc):
        return self.instructions[self.index_of_pc(pc)]

    def target_index(self, inst):
        """Instruction index a branch jumps to."""
        return self.labels[inst.target]

    def global_loads(self):
        """All ``ld.global`` instructions, in program order."""
        return [i for i in self.instructions if i.is_global_load]

    def loads(self, space=None):
        """All loads, optionally restricted to one state space."""
        result = [i for i in self.instructions if i.is_load]
        if space is not None:
            result = [i for i in result if i.space is space]
        return result

    def __len__(self):
        return len(self.instructions)

    def __iter__(self):
        return iter(self.instructions)

    def __repr__(self):
        return "Kernel(%r, %d params, %d insts)" % (
            self.name, len(self.params), len(self.instructions))

    def dump(self):
        """Pretty-print the kernel with PCs and labels (for debugging)."""
        index_labels = {}
        for label, idx in self.labels.items():
            index_labels.setdefault(idx, []).append(label)
        lines = [".entry %s(%s)" % (
            self.name,
            ", ".join(".param .%s %s" % (p.dtype.value, p.name) for p in self.params))]
        for i, inst in enumerate(self.instructions):
            for label in sorted(index_labels.get(i, ())):
                lines.append("%s:" % label)
            lines.append("  /*%04x*/ %s" % (inst.pc, inst))
        return "\n".join(lines)


@dataclass
class Module:
    """A collection of kernels, mirroring a PTX translation unit."""

    kernels: Dict[str, Kernel] = field(default_factory=dict)

    def add(self, kernel):
        if kernel.name in self.kernels:
            raise PTXValidationError("duplicate kernel %r" % kernel.name)
        self.kernels[kernel.name] = kernel
        return kernel

    def __getitem__(self, name):
        return self.kernels[name]

    def __iter__(self):
        return iter(self.kernels.values())

    def __len__(self):
        return len(self.kernels)
