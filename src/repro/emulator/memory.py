"""Device-memory model for the functional emulator.

:class:`MemoryImage` plays the role of the GPU's global (and constant)
address space: workloads allocate named buffers, copy numpy arrays in and
out (the ``cudaMalloc``/``cudaMemcpy`` equivalents), and the emulator reads
and writes scalars at absolute byte addresses during kernel execution.

Shared memory is modeled separately by :class:`SharedMemory`, one instance
per CTA, addressed from offset 0 (matching how PTX shared-space addressing
works after symbol resolution).
"""

from __future__ import annotations

import bisect
import struct
from typing import Dict, List

import numpy as np

from ..ptx.isa import DType

#: Base of the global heap: matches the look of real CUDA device pointers
#: and keeps address 0 invalid (null).
GLOBAL_BASE = 0x1000_0000

#: Allocation alignment.  256 B mirrors cudaMalloc's guarantee and keeps
#: buffers aligned to the 128 B blocks the locality analysis uses.
ALLOC_ALIGN = 256

_STRUCT_FMT = {
    DType.U8: "<B", DType.S8: "<b",
    DType.U16: "<H", DType.S16: "<h",
    DType.U32: "<I", DType.S32: "<i",
    DType.B32: "<I",
    DType.U64: "<Q", DType.S64: "<q",
    DType.B64: "<Q",
    DType.F32: "<f", DType.F64: "<d",
}

_NP_DTYPE = {
    DType.U8: np.uint8, DType.S8: np.int8,
    DType.U16: np.uint16, DType.S16: np.int16,
    DType.U32: np.uint32, DType.S32: np.int32, DType.B32: np.uint32,
    DType.U64: np.uint64, DType.S64: np.int64, DType.B64: np.uint64,
    DType.F32: np.float32, DType.F64: np.float64,
}


class MemoryError_(Exception):
    """Access outside any allocation, or a misaligned access (the
    emulator's segfault).

    ``addr`` carries the faulting byte address so the emulator can
    attach warp/lane context when it re-raises as
    :class:`repro.emulator.machine.MemoryFaultError`.
    """

    def __init__(self, message, addr=None):
        super().__init__(message)
        self.addr = addr
        #: faulting lane, attached by the execution engines when known.
        self.lane = None


class Allocation:
    """One contiguous named device buffer (``end`` is one past its last
    byte; no field is rebound after construction)."""

    __slots__ = ("name", "base", "size", "end", "data")

    def __init__(self, name, base, size):
        self.name = name
        self.base = base
        self.size = size
        self.end = base + size
        self.data = bytearray(size)

    def __repr__(self):
        return "Allocation(%r, base=%#x, size=%d)" % (
            self.name, self.base, self.size)


class MemoryImage:
    """The global device address space: named allocations + typed access."""

    def __init__(self, base=GLOBAL_BASE):
        self._next = base
        self._allocs: List[Allocation] = []
        self._bases: List[int] = []
        self._by_name: Dict[str, Allocation] = {}
        #: the allocation the last :meth:`load`/:meth:`store` hit
        #: (accesses are strongly clustered per buffer); empty at first.
        self._last = Allocation("", 0, 0)

    # -- allocation -------------------------------------------------------

    def alloc(self, name, nbytes):
        """Allocate ``nbytes``; returns the base address."""
        if name in self._by_name:
            raise ValueError("allocation %r already exists" % name)
        if nbytes <= 0:
            raise ValueError("allocation size must be positive")
        base = (self._next + ALLOC_ALIGN - 1) // ALLOC_ALIGN * ALLOC_ALIGN
        alloc = Allocation(name, base, nbytes)
        self._allocs.append(alloc)
        self._bases.append(base)
        self._by_name[name] = alloc
        self._next = base + nbytes
        return base

    def alloc_array(self, name, array):
        """Allocate and copy a numpy array in; returns the base address."""
        array = np.ascontiguousarray(array)
        base = self.alloc(name, array.nbytes)
        alloc = self._by_name[name]
        alloc.data[:] = array.tobytes()
        return base

    def base_of(self, name):
        return self._by_name[name].base

    def allocation(self, name):
        return self._by_name[name]

    def read_array(self, name, np_dtype, count=None):
        """Copy an allocation out as a numpy array."""
        alloc = self._by_name[name]
        arr = np.frombuffer(bytes(alloc.data), dtype=np_dtype)
        if count is not None:
            arr = arr[:count]
        return arr.copy()

    def write_array(self, name, array):
        """Overwrite an allocation's contents from a numpy array."""
        alloc = self._by_name[name]
        raw = np.ascontiguousarray(array).tobytes()
        if len(raw) > alloc.size:
            raise ValueError("array larger than allocation %r" % name)
        alloc.data[:len(raw)] = raw

    # -- scalar access ---------------------------------------------------------

    def _find(self, addr):
        i = bisect.bisect_right(self._bases, addr) - 1
        if i >= 0:
            alloc = self._allocs[i]
            if alloc.base <= addr < alloc.end:
                return alloc
        raise MemoryError_("invalid global access at %#x" % addr, addr=addr)

    def load(self, addr, dtype):
        """Read one scalar of ``dtype`` at absolute address ``addr``."""
        alloc = self._last
        if not alloc.base <= addr < alloc.end:
            alloc = self._last = self._find(addr)
        size = dtype.nbytes
        if addr % size:
            raise MemoryError_("misaligned %d-byte load at %#x"
                               % (size, addr), addr=addr)
        off = addr - alloc.base
        if off + size > alloc.size:
            raise MemoryError_("access at %#x crosses end of %r"
                               % (addr, alloc.name), addr=addr)
        return struct.unpack_from(_STRUCT_FMT[dtype], alloc.data, off)[0]

    def store(self, addr, dtype, value):
        """Write one scalar of ``dtype`` at absolute address ``addr``."""
        alloc = self._last
        if not alloc.base <= addr < alloc.end:
            alloc = self._last = self._find(addr)
        size = dtype.nbytes
        if addr % size:
            raise MemoryError_("misaligned %d-byte store at %#x"
                               % (size, addr), addr=addr)
        off = addr - alloc.base
        if off + size > alloc.size:
            raise MemoryError_("access at %#x crosses end of %r"
                               % (addr, alloc.name), addr=addr)
        struct.pack_into(_STRUCT_FMT[dtype], alloc.data, off, value)

    def valid(self, addr):
        """True when ``addr`` falls inside some allocation."""
        try:
            self._find(addr)
            return True
        except MemoryError_:
            return False

    def allocations(self):
        return list(self._allocs)

    # -- fast accessors (compiled-engine hot path) -------------------------

    def loader(self, dtype):
        """A ``load(addr) -> value`` closure specialized for ``dtype``.

        Binds the struct codec once and caches the last-hit allocation
        (accesses are strongly clustered per buffer), falling back to
        :meth:`load` on any miss/misalignment so faults raise the exact
        same :class:`MemoryError_` messages as the slow path.
        """
        cache = self.__dict__.setdefault("_fast_loaders", {})
        fn = cache.get(dtype)
        if fn is None:
            fn = cache[dtype] = self._make_accessor(dtype, store=False)
        return fn

    def storer(self, dtype):
        """A ``store(addr, value)`` closure; see :meth:`loader`."""
        cache = self.__dict__.setdefault("_fast_storers", {})
        fn = cache.get(dtype)
        if fn is None:
            fn = cache[dtype] = self._make_accessor(dtype, store=True)
        return fn

    def _make_accessor(self, dtype, store):
        codec = struct.Struct(_STRUCT_FMT[dtype])
        size = codec.size
        bases = self._bases          # list identity survives alloc()
        allocs = self._allocs
        bisect_right = bisect.bisect_right
        # last-hit allocation as a flat [base, end, data] cell: the hot
        # path touches only locals, no attribute/property lookups.
        # (Allocation.data is mutated in place, never rebound, so the
        # cached buffer stays the live one.)
        last = [0, 0, b""]
        if store:
            pack_into = codec.pack_into
            slow = self.store

            def store_fast(addr, value):
                base, end, data = last
                if not base <= addr < end:
                    i = bisect_right(bases, addr) - 1
                    if i < 0:
                        return slow(addr, dtype, value)  # raises
                    alloc = allocs[i]
                    base = alloc.base
                    end = alloc.end
                    if not base <= addr < end:
                        return slow(addr, dtype, value)  # raises
                    data = alloc.data
                    last[0] = base
                    last[1] = end
                    last[2] = data
                if addr % size or addr + size > end:
                    return slow(addr, dtype, value)  # raises
                pack_into(data, addr - base, value)
            return store_fast

        unpack_from = codec.unpack_from
        slow = self.load

        def load_fast(addr):
            base, end, data = last
            if not base <= addr < end:
                i = bisect_right(bases, addr) - 1
                if i < 0:
                    return slow(addr, dtype)  # raises
                alloc = allocs[i]
                base = alloc.base
                end = alloc.end
                if not base <= addr < end:
                    return slow(addr, dtype)  # raises
                data = alloc.data
                last[0] = base
                last[1] = end
                last[2] = data
            if addr % size or addr + size > end:
                return slow(addr, dtype)  # raises
            return unpack_from(data, addr - base)[0]
        return load_fast


class SharedMemory:
    """Per-CTA shared memory, addressed from offset 0."""

    def __init__(self, size):
        self.size = max(size, 1)
        self.data = bytearray(self.size)

    def load(self, addr, dtype):
        size = dtype.nbytes
        if addr < 0 or addr + size > self.size:
            raise MemoryError_("invalid shared access at %#x (size %d)"
                               % (addr, self.size), addr=addr)
        if addr % size:
            raise MemoryError_("misaligned %d-byte shared load at %#x"
                               % (size, addr), addr=addr)
        return struct.unpack_from(_STRUCT_FMT[dtype], self.data, addr)[0]

    def store(self, addr, dtype, value):
        size = dtype.nbytes
        if addr < 0 or addr + size > self.size:
            raise MemoryError_("invalid shared access at %#x (size %d)"
                               % (addr, self.size), addr=addr)
        if addr % size:
            raise MemoryError_("misaligned %d-byte shared store at %#x"
                               % (size, addr), addr=addr)
        struct.pack_into(_STRUCT_FMT[dtype], self.data, addr, value)

    def loader(self, dtype):
        """A ``load(addr) -> value`` closure specialized for ``dtype``
        (same fault behavior as :meth:`load`; compiled-engine hot path)."""
        cache = self.__dict__.setdefault("_fast_loaders", {})
        fn = cache.get(dtype)
        if fn is None:
            codec = struct.Struct(_STRUCT_FMT[dtype])
            size, unpack_from = codec.size, codec.unpack_from
            data, limit, slow = self.data, self.size, self.load

            def load_fast(addr):
                if addr < 0 or addr + size > limit or addr % size:
                    return slow(addr, dtype)  # raises
                return unpack_from(data, addr)[0]
            fn = cache[dtype] = load_fast
        return fn

    def storer(self, dtype):
        """A ``store(addr, value)`` closure; see :meth:`loader`."""
        cache = self.__dict__.setdefault("_fast_storers", {})
        fn = cache.get(dtype)
        if fn is None:
            codec = struct.Struct(_STRUCT_FMT[dtype])
            size, pack_into = codec.size, codec.pack_into
            data, limit, slow = self.data, self.size, self.store

            def store_fast(addr, value):
                if addr < 0 or addr + size > limit or addr % size:
                    return slow(addr, dtype, value)  # raises
                pack_into(data, addr, value)
            fn = cache[dtype] = store_fast
        return fn


def np_dtype_for(dtype):
    """The numpy dtype matching a PTX :class:`DType`."""
    return _NP_DTYPE[dtype]
