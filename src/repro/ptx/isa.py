"""Instruction-set definition for the PTX subset used throughout the repo.

The paper's load classifier operates on NVIDIA PTX, the virtual ISA that
CUDA kernels are compiled to.  This module defines the portion of PTX that
the parser, the dataflow classifier and the functional emulator understand:

* scalar data types (``.u32``, ``.f32``, ...),
* state spaces (``.global``, ``.shared``, ``.param``, ...),
* operand kinds (registers, special registers, immediates, memory
  references, symbols),
* the :class:`Instruction` container, and
* opcode metadata: which functional unit executes an opcode and how its
  operands are laid out.

The subset is deliberately small but complete enough to express every
address-generation idiom the paper's analysis distinguishes: linear
``tid``/``ctaid`` arithmetic, parameter loads (``ld.param``), data-dependent
indexing through ``ld.global``/``ld.shared`` results, and atomics.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

from .errors import PTXValidationError, UnknownOpcodeError

# ---------------------------------------------------------------------------
# Data types
# ---------------------------------------------------------------------------


#: PTX type suffix -> size of a value in bytes (predicates count as 1).
_DTYPE_SIZES = {
    "u8": 1, "s8": 1,
    "u16": 2, "s16": 2,
    "u32": 4, "s32": 4, "b32": 4, "f32": 4,
    "u64": 8, "s64": 8, "b64": 8, "f64": 8,
    "pred": 1,
}


class DType(enum.Enum):
    """Scalar PTX data types supported by the subset.

    Members hash by identity (they key the emulator's per-lane codec
    tables), and every fact below is a plain attribute, set once per
    member.
    """

    U8 = "u8"
    S8 = "s8"
    U16 = "u16"
    S16 = "s16"
    U32 = "u32"
    S32 = "s32"
    U64 = "u64"
    S64 = "s64"
    B32 = "b32"
    B64 = "b64"
    F32 = "f32"
    F64 = "f64"
    PRED = "pred"

    __hash__ = object.__hash__

    def __init__(self, value):
        #: size of a value of this type in bytes (predicates count as 1)
        self.nbytes = _DTYPE_SIZES[value]
        self.bits = self.nbytes * 8
        self.is_float = value in ("f32", "f64")
        self.is_signed = value in ("s8", "s16", "s32", "s64")
        self.is_integer = not self.is_float and value != "pred"


_DTYPE_BY_NAME = {t.value: t for t in DType}


def dtype_from_name(name):
    """Look up a :class:`DType` from its PTX suffix (without the dot)."""
    try:
        return _DTYPE_BY_NAME[name]
    except KeyError:
        raise PTXValidationError("unknown data type: .%s" % name) from None


# ---------------------------------------------------------------------------
# State spaces
# ---------------------------------------------------------------------------


class Space(enum.Enum):
    """PTX state spaces relevant to load/store classification.

    Members hash by identity and carry their one fact as an attribute,
    as :class:`DType` does.
    """

    GLOBAL = "global"
    SHARED = "shared"
    LOCAL = "local"
    PARAM = "param"
    CONST = "const"
    TEX = "tex"

    __hash__ = object.__hash__

    def __init__(self, value):
        #: Spaces whose loads make a dependent address *non-deterministic*.
        #: Per the paper (Section V): a load whose source register is
        #: defined from prior ``ld.global``, ``ld.local``, ``ld.shared`` or
        #: ``ld.tex`` instructions is non-deterministic.  ``ld.param`` and
        #: ``ld.const`` read launch-time parameters, which the paper treats
        #: as deterministic roots.
        self.is_data_load_space = value in ("global", "shared", "local",
                                            "tex")


_SPACE_BY_NAME = {s.value: s for s in Space}


def space_from_name(name):
    try:
        return _SPACE_BY_NAME[name]
    except KeyError:
        raise PTXValidationError("unknown state space: .%s" % name) from None


# ---------------------------------------------------------------------------
# Operands
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Reg:
    """A virtual general-purpose or predicate register, e.g. ``%r4``."""

    name: str

    def __str__(self):
        return self.name


# Special registers exposing launch-time parameterized values.  These are
# exactly the deterministic roots of the paper's backward dataflow:
# thread ids, CTA ids and grid/CTA dimensions.
SPECIAL_REGISTERS = frozenset(
    "%" + base + "." + axis
    for base in ("tid", "ntid", "ctaid", "nctaid")
    for axis in ("x", "y", "z")
) | frozenset(("%laneid", "%warpid", "%smid", "%gridid"))


@dataclass(frozen=True)
class SReg:
    """A special (read-only, launch-parameterized) register, e.g. ``%tid.x``."""

    name: str

    def __post_init__(self):
        if self.name not in SPECIAL_REGISTERS:
            raise PTXValidationError("unknown special register: %s" % self.name)

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Imm:
    """An immediate (literal) operand."""

    value: Union[int, float]

    def __str__(self):
        return repr(self.value)


@dataclass(frozen=True)
class Sym:
    """A symbol operand: a kernel parameter name or a branch label."""

    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class MemRef:
    """A memory reference ``[base+offset]``.

    ``base`` is a :class:`Reg` holding the address, or a :class:`Sym` naming
    a kernel parameter (for ``ld.param``) / shared variable, or an
    :class:`Imm` absolute address.
    """

    base: Union[Reg, Sym, Imm]
    offset: int = 0

    def __str__(self):
        if self.offset:
            return "[%s+%d]" % (self.base, self.offset)
        return "[%s]" % (self.base,)


Operand = Union[Reg, SReg, Imm, Sym, MemRef]


# ---------------------------------------------------------------------------
# Functional units (for the timing model)
# ---------------------------------------------------------------------------


class Unit(enum.Enum):
    """The SM functional unit an opcode issues to (Section III of the paper)."""

    SP = "sp"        # stream processors: int / simple fp arithmetic
    SFU = "sfu"      # special function units: transcendental / division
    LDST = "ldst"    # load/store units
    CTRL = "ctrl"    # branches & barriers (handled by the issue stage)


# ---------------------------------------------------------------------------
# Opcode table
# ---------------------------------------------------------------------------

#: opcode -> default functional unit.
OPCODES = {
    # data movement
    "mov": Unit.SP,
    "cvt": Unit.SP,
    "cvta": Unit.SP,
    "ld": Unit.LDST,
    "st": Unit.LDST,
    "atom": Unit.LDST,
    "red": Unit.LDST,
    # integer / simple float arithmetic
    "add": Unit.SP,
    "sub": Unit.SP,
    "mul": Unit.SP,
    "mad": Unit.SP,
    "fma": Unit.SP,
    "div": Unit.SFU,
    "rem": Unit.SFU,
    "min": Unit.SP,
    "max": Unit.SP,
    "abs": Unit.SP,
    "neg": Unit.SP,
    "and": Unit.SP,
    "or": Unit.SP,
    "xor": Unit.SP,
    "not": Unit.SP,
    "shl": Unit.SP,
    "shr": Unit.SP,
    # transcendental (always SFU)
    "rcp": Unit.SFU,
    "sqrt": Unit.SFU,
    "rsqrt": Unit.SFU,
    "sin": Unit.SFU,
    "cos": Unit.SFU,
    "ex2": Unit.SFU,
    "lg2": Unit.SFU,
    # comparison / select
    "setp": Unit.SP,
    "selp": Unit.SP,
    # control
    "bra": Unit.CTRL,
    "bar": Unit.CTRL,
    "membar": Unit.CTRL,
    "exit": Unit.CTRL,
    "ret": Unit.CTRL,
}

#: comparison operators accepted by ``setp``.
CMP_OPS = frozenset(
    ("eq", "ne", "lt", "le", "gt", "ge", "ltu", "leu", "gtu", "geu")
)

#: atomic operations accepted by ``atom``.
ATOM_OPS = frozenset(("add", "min", "max", "exch", "cas", "and", "or", "xor", "inc", "dec"))

#: operations accepted by ``red`` (reductions return no value, so the
#: read-modify-write ops that only make sense with a result — ``exch``
#: and ``cas`` — are excluded, matching the PTX ISA).
RED_OPS = frozenset(("add", "min", "max", "and", "or", "xor", "inc", "dec"))

#: ``mul``/``mad`` width modifiers.
MUL_MODES = frozenset(("lo", "hi", "wide"))

#: rounding / approximation modifiers we accept and ignore semantically.
IGNORED_MODIFIERS = frozenset(
    ("approx", "full", "rn", "rz", "rm", "rp", "rni", "rzi", "sat", "ftz",
     "uni", "sync", "to", "cta", "gl", "sys", "volatile", "nc")
)


def unit_for(opcode):
    """Return the functional unit for ``opcode``.

    Raises :class:`UnknownOpcodeError` for opcodes outside the subset.
    """
    try:
        return OPCODES[opcode]
    except KeyError:
        raise UnknownOpcodeError(opcode) from None


# ---------------------------------------------------------------------------
# Instruction container
# ---------------------------------------------------------------------------

#: Byte distance between consecutive instruction PCs.  Real Fermi SASS uses
#: 8-byte instructions; using the same stride makes our reported PCs look
#: like the paper's (e.g. ``PC: 0x110`` in Figure 7).
PC_STRIDE = 8


@dataclass
class Instruction:
    """One decoded PTX-subset instruction.

    Attributes
    ----------
    opcode:
        Base opcode (``"ld"``, ``"add"``, ...).
    dtype:
        Operating data type, or ``None`` for typeless opcodes (``bra``).
    space:
        State space for memory opcodes, else ``None``.
    dests / srcs:
        Destination and source operand tuples.  ``st`` has no dests; its
        :class:`MemRef` lives in ``srcs[0]`` and the stored value in
        ``srcs[1]``.
    pred:
        Optional guard: ``(Reg, negated)`` — the instruction executes in a
        thread only when the predicate register is true (false if negated).
    cmp_op:
        Comparison operator for ``setp``.
    atom_op:
        Operation for ``atom``.
    mul_mode:
        ``lo``/``hi``/``wide`` for ``mul``/``mad``.
    vector:
        Vector width for ``ld``/``st`` (1, 2 or 4): ``ld.global.v4.f32``
        moves four consecutive elements per lane.
    target:
        Branch-target label for ``bra``.
    pc:
        Byte address assigned when the kernel is finalized.
    """

    opcode: str
    dtype: Optional[DType] = None
    space: Optional[Space] = None
    dests: Tuple[Operand, ...] = ()
    srcs: Tuple[Operand, ...] = ()
    pred: Optional[Tuple[Reg, bool]] = None
    cmp_op: Optional[str] = None
    atom_op: Optional[str] = None
    mul_mode: Optional[str] = None
    vector: int = 1
    target: Optional[str] = None
    pc: int = -1
    modifiers: Tuple[str, ...] = field(default_factory=tuple)
    #: 1-based source line in the PTX text the parser read this
    #: instruction from (0 for hand-built instructions).  Excluded from
    #: equality/repr so parse∘print round trips stay fixed points.
    line: int = field(default=0, repr=False, compare=False)
    # lazily computed register-name caches
    _read_names: Optional[Tuple[str, ...]] = field(
        default=None, repr=False, compare=False)
    _write_names: Optional[Tuple[str, ...]] = field(
        default=None, repr=False, compare=False)

    # -- classification helpers -------------------------------------------
    #
    # Flags that depend only on ``opcode`` are plain attributes, set once
    # here (nothing rebinds ``opcode``), in one order so every instance
    # keeps sharing the class's attribute-key table.  The parser sets
    # ``space`` and ``srcs`` after construction, so flags that read them
    # stay properties, as does ``unit``: only the simulator's decode reads
    # it, once per instruction, and an opcode outside the subset must
    # raise when it is read, not when it is built.

    def __post_init__(self):
        op = self.opcode
        self.is_load = op == "ld"
        self.is_store = op == "st"
        #: ``atom`` and ``red`` (a reduction is an atomic read-modify-
        #: write whose old value is discarded)
        self.is_atomic = op in ("atom", "red")
        self.is_memory = op in ("ld", "st", "atom", "red")
        self.is_branch = op == "bra"
        self.is_barrier = op == "bar"
        self.is_exit = op in ("exit", "ret")

    @property
    def unit(self):
        return unit_for(self.opcode)

    @property
    def is_global_load(self):
        return self.is_load and self.space is Space.GLOBAL

    @property
    def is_shared_load(self):
        return self.is_load and self.space is Space.SHARED

    @property
    def is_param_load(self):
        return self.is_load and self.space is Space.PARAM

    @property
    def memref(self):
        """The :class:`MemRef` operand of a memory instruction, else ``None``."""
        if self.is_load or self.is_atomic:
            return self.srcs[0] if self.srcs and isinstance(self.srcs[0], MemRef) else None
        if self.is_store:
            return self.srcs[0] if self.srcs and isinstance(self.srcs[0], MemRef) else None
        return None

    def reads(self):
        """All register operands this instruction reads (incl. address bases
        and the guard predicate)."""
        regs = []
        if self.pred is not None:
            regs.append(self.pred[0])
        for op in self.srcs:
            if isinstance(op, (Reg, SReg)):
                regs.append(op)
            elif isinstance(op, MemRef) and isinstance(op.base, (Reg, SReg)):
                regs.append(op.base)
        return regs

    def writes(self):
        """All register operands this instruction defines."""
        return [op for op in self.dests if isinstance(op, Reg)]

    @property
    def read_reg_names(self):
        """Names of general-purpose registers this instruction reads
        (cached; excludes special registers, which are never hazards)."""
        if self._read_names is None:
            self._read_names = tuple(
                r.name for r in self.reads() if isinstance(r, Reg))
        return self._read_names

    @property
    def write_reg_names(self):
        """Names of registers this instruction defines (cached)."""
        if self._write_names is None:
            self._write_names = tuple(r.name for r in self.writes())
        return self._write_names

    # -- printing ----------------------------------------------------------

    def mnemonic(self):
        """The dotted opcode string, e.g. ``ld.global.u32``."""
        parts = [self.opcode]
        if self.atom_op:
            parts.append(self.atom_op)
        if self.cmp_op:
            parts.append(self.cmp_op)
        if self.space is not None:
            parts.append(self.space.value)
        if self.mul_mode:
            parts.append(self.mul_mode)
        if self.vector > 1:
            parts.append("v%d" % self.vector)
        parts.extend(self.modifiers)
        if self.dtype is not None:
            parts.append(self.dtype.value)
        return ".".join(parts)

    @property
    def access_bytes(self):
        """Bytes each lane moves for a memory instruction."""
        width = self.dtype.nbytes if self.dtype is not None else 4
        return width * self.vector

    def __str__(self):
        guard = ""
        if self.pred is not None:
            reg, negated = self.pred
            guard = "@%s%s " % ("!" if negated else "", reg)
        ops = list(self.dests) + list(self.srcs)
        if self.is_branch:
            body = "%s %s" % (self.mnemonic(), self.target)
        elif ops:
            body = "%s %s" % (self.mnemonic(), ", ".join(str(o) for o in ops))
        else:
            body = self.mnemonic()
        return "%s%s;" % (guard, body)
