"""Unit tests for the device-memory model."""

import random

import numpy as np
import pytest

from repro.emulator.memory import (
    ALLOC_ALIGN,
    GLOBAL_BASE,
    MemoryImage,
    MemoryError_,
    SharedMemory,
)
from repro.ptx.isa import DType


class TestAllocation:
    def test_bases_are_aligned(self):
        mem = MemoryImage()
        a = mem.alloc("a", 10)
        b = mem.alloc("b", 10)
        assert a % ALLOC_ALIGN == 0
        assert b % ALLOC_ALIGN == 0
        assert b >= a + 10

    def test_base_starts_at_heap(self):
        mem = MemoryImage()
        assert mem.alloc("a", 4) >= GLOBAL_BASE

    def test_duplicate_name_rejected(self):
        mem = MemoryImage()
        mem.alloc("a", 4)
        with pytest.raises(ValueError):
            mem.alloc("a", 4)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            MemoryImage().alloc("a", 0)

    def test_base_of(self):
        mem = MemoryImage()
        base = mem.alloc("buf", 64)
        assert mem.base_of("buf") == base


class TestArrayIO:
    def test_roundtrip(self):
        mem = MemoryImage()
        data = np.arange(16, dtype=np.float32)
        mem.alloc_array("x", data)
        out = mem.read_array("x", np.float32)
        assert np.array_equal(out, data)

    def test_read_with_count(self):
        mem = MemoryImage()
        mem.alloc_array("x", np.arange(16, dtype=np.int32))
        assert len(mem.read_array("x", np.int32, 4)) == 4

    def test_write_array_overwrites(self):
        mem = MemoryImage()
        mem.alloc_array("x", np.zeros(8, dtype=np.uint32))
        mem.write_array("x", np.ones(8, dtype=np.uint32))
        assert mem.read_array("x", np.uint32).sum() == 8

    def test_write_array_too_large(self):
        mem = MemoryImage()
        mem.alloc_array("x", np.zeros(2, dtype=np.uint32))
        with pytest.raises(ValueError):
            mem.write_array("x", np.zeros(4, dtype=np.uint32))


class TestScalarAccess:
    def test_load_store_types(self):
        mem = MemoryImage()
        base = mem.alloc("x", 64)
        mem.store(base, DType.U32, 0xDEADBEEF)
        assert mem.load(base, DType.U32) == 0xDEADBEEF
        mem.store(base + 8, DType.F32, 2.5)
        assert mem.load(base + 8, DType.F32) == 2.5
        mem.store(base + 16, DType.S32, -7)
        assert mem.load(base + 16, DType.S32) == -7
        mem.store(base + 24, DType.U64, 1 << 40)
        assert mem.load(base + 24, DType.U64) == 1 << 40

    def test_invalid_address_raises(self):
        mem = MemoryImage()
        mem.alloc("x", 16)
        with pytest.raises(MemoryError_):
            mem.load(0x10, DType.U32)

    def test_access_past_allocation_end(self):
        mem = MemoryImage()
        base = mem.alloc("x", 16)
        with pytest.raises(MemoryError_):
            mem.load(base + 14, DType.U32)

    def test_valid(self):
        mem = MemoryImage()
        base = mem.alloc("x", 16)
        assert mem.valid(base)
        assert mem.valid(base + 15)
        assert not mem.valid(base + 16 + ALLOC_ALIGN)

    def test_gap_between_allocations_invalid(self):
        mem = MemoryImage()
        base = mem.alloc("x", 10)
        mem.alloc("y", 10)
        # the padding bytes after x's 10 bytes belong to no allocation
        assert not mem.valid(base + 100)


def _two_allocs():
    """``a`` (20 bytes) at the heap base, ``b`` (16 bytes) one
    alignment step later; returns ``(mem, a, b)``."""
    mem = MemoryImage()
    a = mem.alloc("a", 20)
    b = mem.alloc("b", 16)
    assert (a, b) == (GLOBAL_BASE, GLOBAL_BASE + ALLOC_ALIGN)
    return mem, a, b


def _fault(access):
    with pytest.raises(MemoryError_) as info:
        access()
    return str(info.value), info.value.addr


#: (name, address relative to ``a``, dtype, message) of each fault the
#: accesses below provoke; the messages are the slow path's.
_FAULTS = (
    ("at_end_in_padding", 20, DType.U32,
     "invalid global access at 0x10000014"),
    ("gap_before_b", 128, DType.U32, "invalid global access at 0x10000080"),
    ("below_heap", -4, DType.U32, "invalid global access at 0xffffffc"),
    ("misaligned", 2, DType.U32, "misaligned 4-byte %s at 0x10000002"),
    ("straddles_end", 16, DType.U64,
     "access at 0x10000010 crosses end of 'a'"),
)


class TestFaultAfterLastHit:
    """A fault raised right after a successful access to ``a`` carries
    the same message and ``addr`` as one raised from a fresh image,
    through every entry point."""

    @pytest.mark.parametrize("name,rel,dtype,message", _FAULTS,
                             ids=[f[0] for f in _FAULTS])
    @pytest.mark.parametrize("entry", ["load", "store", "loader", "storer"])
    def test_fault(self, entry, name, rel, dtype, message):
        mem, a, _ = _two_allocs()
        if entry in ("load", "loader"):
            access = {"load": lambda: mem.load(a + rel, dtype),
                      "loader": lambda: mem.loader(dtype)(a + rel)}[entry]
            warm = lambda: mem.load(a + 8, dtype)  # noqa: E731
            kind = "load"
        else:
            access = {"store": lambda: mem.store(a + rel, dtype, 1),
                      "storer": lambda: mem.storer(dtype)(a + rel, 1)}[entry]
            warm = lambda: mem.store(a + 8, dtype, 1)  # noqa: E731
            kind = "store"
        expected = (message.replace("%s", kind), a + rel)
        assert _fault(access) == expected          # from a fresh image
        warm()
        assert _fault(access) == expected          # after a hit on ``a``
        warm()                                     # the hit still serves

    def test_fault_leaves_other_allocation_usable(self):
        mem, a, b = _two_allocs()
        mem.store(a, DType.U32, 7)
        _fault(lambda: mem.load(a + 128, DType.U32))
        mem.store(b, DType.U32, 9)
        _fault(lambda: mem.load(a + 2, DType.U32))
        assert (mem.load(a, DType.U32), mem.load(b, DType.U32)) == (7, 9)


_SWEEP_DTYPES = (DType.U8, DType.S16, DType.U32, DType.S32, DType.F32,
                 DType.U64, DType.S64, DType.F64)


def _sweep_accesses(seed, n=600):
    """Seeded ``(addr, dtype)`` pairs alternating between three
    allocations, biased to their edges: in range, misaligned, straddling
    the end, in the padding and below the base."""
    rng = random.Random(seed)
    mem = MemoryImage()
    bases = [(mem.alloc(name, size), size)
             for name, size in (("x", 40), ("y", 260), ("z", 12))]
    out = []
    for i in range(n):
        base, size = bases[i % len(bases)]
        dtype = rng.choice(_SWEEP_DTYPES)
        offset = rng.randrange(-12, size + 12)
        if rng.random() < 0.75:
            offset -= offset % dtype.nbytes
        out.append((base + offset, dtype))
    return out


def _sweep_image(seed):
    mem = MemoryImage()
    rng = random.Random(seed + 1)
    for name, size in (("x", 40), ("y", 260), ("z", 12)):
        mem.alloc_array(name, np.frombuffer(
            bytes(rng.randrange(256) for _ in range(size)), np.uint8))
    return mem


def _outcome(call):
    try:
        return ("ok", repr(call()))
    except MemoryError_ as exc:
        return ("fault", str(exc), exc.addr)


def _value(rng, dtype):
    if dtype.is_float:
        return rng.uniform(-1e6, 1e6)
    lo = -(1 << (dtype.bits - 1)) if dtype.is_signed else 0
    return rng.randrange(lo, lo + (1 << dtype.bits))


class TestAccessorSweep:
    """``load``/``store`` and the ``loader``/``storer`` closures agree on
    every value and every fault message over a seeded sweep."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_load_matches_loader(self, seed):
        mem = _sweep_image(seed)
        outcomes = [(_outcome(lambda: mem.load(addr, dtype)),
                     _outcome(lambda: mem.loader(dtype)(addr)))
                    for addr, dtype in _sweep_accesses(seed)]
        assert all(slow == fast for slow, fast in outcomes)
        kinds = {slow[1].split()[0] if slow[0] == "fault" else "ok"
                 for slow, _ in outcomes}
        assert kinds == {"ok", "invalid", "misaligned", "access"}

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_store_matches_storer(self, seed):
        slow_mem, fast_mem = _sweep_image(seed), _sweep_image(seed)
        rng = random.Random(seed + 2)
        for addr, dtype in _sweep_accesses(seed):
            value = _value(rng, dtype)
            slow = _outcome(lambda: slow_mem.store(addr, dtype, value))
            fast = _outcome(lambda: fast_mem.storer(dtype)(addr, value))
            assert slow == fast
        for name in ("x", "y", "z"):
            assert slow_mem.allocation(name).data == \
                fast_mem.allocation(name).data


class TestSharedMemory:
    def test_load_store(self):
        shared = SharedMemory(64)
        shared.store(0, DType.F32, 1.5)
        assert shared.load(0, DType.F32) == 1.5

    def test_bounds(self):
        shared = SharedMemory(16)
        with pytest.raises(MemoryError_):
            shared.load(16, DType.U32)
        with pytest.raises(MemoryError_):
            shared.store(-4, DType.U32, 0)

    def test_zero_size_still_usable_object(self):
        shared = SharedMemory(0)
        assert shared.size >= 1
