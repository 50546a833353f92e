"""Unit tests for the PTX-subset ISA definitions."""

import pickle

import pytest

from repro.ptx.errors import PTXValidationError, UnknownOpcodeError
from repro.ptx.isa import (
    OPCODES,
    PC_STRIDE,
    SPECIAL_REGISTERS,
    DType,
    Imm,
    Instruction,
    MemRef,
    Reg,
    Space,
    SReg,
    Sym,
    Unit,
    dtype_from_name,
    space_from_name,
    unit_for,
)


class TestDType:
    def test_sizes(self):
        assert DType.U8.nbytes == 1
        assert DType.U16.nbytes == 2
        assert DType.U32.nbytes == 4
        assert DType.U64.nbytes == 8
        assert DType.F32.nbytes == 4
        assert DType.F64.nbytes == 8

    def test_bits(self):
        assert DType.U32.bits == 32
        assert DType.S64.bits == 64

    def test_float_flags(self):
        assert DType.F32.is_float
        assert DType.F64.is_float
        assert not DType.U32.is_float

    def test_signed_flags(self):
        assert DType.S32.is_signed
        assert not DType.U32.is_signed
        assert not DType.F32.is_signed

    def test_integer_flags(self):
        assert DType.U32.is_integer
        assert DType.B64.is_integer
        assert not DType.F32.is_integer
        assert not DType.PRED.is_integer

    def test_lookup(self):
        assert dtype_from_name("u32") is DType.U32
        assert dtype_from_name("f64") is DType.F64

    def test_lookup_unknown(self):
        with pytest.raises(PTXValidationError):
            dtype_from_name("u128")

    def test_every_member_fact(self):
        # name: (nbytes, bits, is_float, is_signed, is_integer)
        expected = {
            "U8": (1, 8, False, False, True),
            "S8": (1, 8, False, True, True),
            "U16": (2, 16, False, False, True),
            "S16": (2, 16, False, True, True),
            "U32": (4, 32, False, False, True),
            "S32": (4, 32, False, True, True),
            "U64": (8, 64, False, False, True),
            "S64": (8, 64, False, True, True),
            "B32": (4, 32, False, False, True),
            "B64": (8, 64, False, False, True),
            "F32": (4, 32, True, False, False),
            "F64": (8, 64, True, False, False),
            "PRED": (1, 8, False, False, False),
        }
        assert {t.name: (t.nbytes, t.bits, t.is_float, t.is_signed,
                         t.is_integer) for t in DType} == expected


class TestSpace:
    def test_lookup(self):
        assert space_from_name("global") is Space.GLOBAL
        assert space_from_name("param") is Space.PARAM

    def test_lookup_unknown(self):
        with pytest.raises(PTXValidationError):
            space_from_name("warp")

    def test_data_load_spaces(self):
        assert Space.GLOBAL.is_data_load_space
        assert Space.SHARED.is_data_load_space
        assert Space.LOCAL.is_data_load_space
        assert Space.TEX.is_data_load_space
        assert not Space.PARAM.is_data_load_space
        assert not Space.CONST.is_data_load_space

    def test_every_member_fact(self):
        assert {s.name: s.is_data_load_space for s in Space} == {
            "GLOBAL": True, "SHARED": True, "LOCAL": True,
            "PARAM": False, "CONST": False, "TEX": True}


@pytest.mark.parametrize("member", list(DType) + list(Space),
                         ids=lambda m: "%s.%s" % (type(m).__name__, m.name))
class TestEnumIdentity:
    """The hot-path ISA enums hash by identity and unpickle as the same
    member, so ``is`` checks hold on objects from another process."""

    def test_identity_hash(self, member):
        assert hash(member) == object.__hash__(member)

    def test_pickle_round_trip_is_same_member(self, member):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(member, protocol)) is member


class TestOperands:
    def test_reg_str(self):
        assert str(Reg("%r1")) == "%r1"

    def test_sreg_validation(self):
        assert SReg("%tid.x").name == "%tid.x"
        with pytest.raises(PTXValidationError):
            SReg("%bogus.x")

    def test_special_register_axes(self):
        for base in ("tid", "ntid", "ctaid", "nctaid"):
            for axis in "xyz":
                assert "%%%s.%s" % (base, axis) in SPECIAL_REGISTERS

    def test_memref_str(self):
        assert str(MemRef(Reg("%rd1"), 8)) == "[%rd1+8]"
        assert str(MemRef(Sym("param_a"))) == "[param_a]"

    def test_imm(self):
        assert Imm(3).value == 3
        assert Imm(2.5).value == 2.5


class TestUnits:
    def test_unit_mapping(self):
        assert unit_for("add") is Unit.SP
        assert unit_for("sin") is Unit.SFU
        assert unit_for("ld") is Unit.LDST
        assert unit_for("bra") is Unit.CTRL
        assert unit_for("div") is Unit.SFU

    def test_unknown_opcode(self):
        with pytest.raises(UnknownOpcodeError):
            unit_for("vadd4")


def _load(space=Space.GLOBAL):
    return Instruction(opcode="ld", dtype=DType.U32, space=space,
                       dests=(Reg("%r1"),),
                       srcs=(MemRef(Reg("%rd1"), 4),))


class TestInstruction:
    def test_load_flags(self):
        inst = _load()
        assert inst.is_load and inst.is_global_load and inst.is_memory
        assert not inst.is_store and not inst.is_branch

    def test_shared_load(self):
        assert _load(Space.SHARED).is_shared_load
        assert not _load(Space.SHARED).is_global_load

    def test_param_load(self):
        inst = Instruction(opcode="ld", dtype=DType.U64, space=Space.PARAM,
                           dests=(Reg("%rd1"),),
                           srcs=(MemRef(Sym("a")),))
        assert inst.is_param_load

    def test_memref_access(self):
        inst = _load()
        assert inst.memref.offset == 4
        assert inst.memref.base == Reg("%rd1")

    def test_store_memref(self):
        st = Instruction(opcode="st", dtype=DType.U32, space=Space.GLOBAL,
                         srcs=(MemRef(Reg("%rd2")), Reg("%r3")))
        assert st.memref.base == Reg("%rd2")
        assert st.is_store

    def test_reads_includes_address_base_and_pred(self):
        inst = _load()
        inst.pred = (Reg("%p1"), False)
        names = [r.name for r in inst.reads()]
        assert "%p1" in names
        assert "%rd1" in names

    def test_writes(self):
        assert [r.name for r in _load().writes()] == ["%r1"]

    def test_read_write_name_caches(self):
        inst = _load()
        assert inst.read_reg_names == ("%rd1",)
        assert inst.write_reg_names == ("%r1",)
        # cached object identity on second call
        assert inst.read_reg_names is inst.read_reg_names

    def test_mnemonic(self):
        assert _load().mnemonic() == "ld.global.u32"
        setp = Instruction(opcode="setp", dtype=DType.S32, cmp_op="lt",
                           dests=(Reg("%p1"),),
                           srcs=(Reg("%r1"), Reg("%r2")))
        assert setp.mnemonic() == "setp.lt.s32"

    def test_str_with_guard(self):
        inst = _load()
        inst.pred = (Reg("%p2"), True)
        assert str(inst).startswith("@!%p2 ")

    def test_branch_str(self):
        bra = Instruction(opcode="bra", target="LOOP")
        assert "LOOP" in str(bra)
        assert bra.is_branch

    def test_exit_flags(self):
        assert Instruction(opcode="exit").is_exit
        assert Instruction(opcode="ret").is_exit
        assert Instruction(opcode="bar", modifiers=("sync",)).is_barrier

    def test_atomic_flags(self):
        atom = Instruction(opcode="atom", dtype=DType.U32,
                           space=Space.GLOBAL, atom_op="add",
                           dests=(Reg("%r1"),),
                           srcs=(MemRef(Reg("%rd1")), Reg("%r2")))
        assert atom.is_atomic and atom.is_memory and not atom.is_load
        assert atom.mnemonic() == "atom.add.global.u32"

    def test_pc_stride_is_8_bytes(self):
        assert PC_STRIDE == 8


#: unit -> the opcodes that issue to it.
_UNIT_OPCODES = {
    Unit.SP: "mov cvt cvta add sub mul mad fma min max abs neg and or "
             "xor not shl shr setp selp",
    Unit.SFU: "div rem rcp sqrt rsqrt sin cos ex2 lg2",
    Unit.LDST: "ld st atom red",
    Unit.CTRL: "bra bar membar exit ret",
}

#: opcode -> the boolean opcode flags that are true for it (all others
#: are false).
_OPCODE_FLAGS = {
    "ld": {"is_load", "is_memory"},
    "st": {"is_store", "is_memory"},
    "atom": {"is_atomic", "is_memory"},
    "red": {"is_atomic", "is_memory"},
    "bra": {"is_branch"},
    "bar": {"is_barrier"},
    "exit": {"is_exit"},
    "ret": {"is_exit"},
}

_FLAGS = ("is_load", "is_store", "is_atomic", "is_memory", "is_branch",
          "is_barrier", "is_exit")


class TestOpcodeFlags:
    def test_table_covers_every_opcode(self):
        listed = sorted(op for ops in _UNIT_OPCODES.values()
                        for op in ops.split())
        assert listed == sorted(OPCODES)

    @pytest.mark.parametrize("opcode", sorted(OPCODES))
    def test_flags_of_built_instruction(self, opcode):
        inst = Instruction(opcode=opcode)
        unit, = [u for u, ops in _UNIT_OPCODES.items()
                 if opcode in ops.split()]
        assert inst.unit is unit
        assert {f for f in _FLAGS if getattr(inst, f)} == \
            _OPCODE_FLAGS.get(opcode, set())
        assert all(type(getattr(inst, f)) is bool for f in _FLAGS)

    def test_unknown_opcode_builds_but_unit_raises(self):
        inst = Instruction(opcode="vadd4")
        assert not inst.is_memory
        with pytest.raises(UnknownOpcodeError):
            inst.unit
