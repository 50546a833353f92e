"""Differential testing of the three warp-execution engines.

The vectorized (NumPy structure-of-arrays) engine and the compiled
(generated-Python) engine must both be trace-equivalent to the scalar
per-lane interpreter, which serves as the semantic oracle.  Equivalence is checked at the strongest level the
pipeline observes: the *serialized byte stream* of the application
trace — identical PCs, active masks and per-lane addresses for every
dynamic warp instruction of every registered workload.

(:func:`~repro.emulator.serialize.save_run` is byte-deterministic —
no gzip mtime — which is what makes file-level comparison valid.)
"""

import random

import numpy as np
import pytest

from repro.emulator import ApplicationTrace, Emulator, MemoryImage
from repro.emulator.serialize import save_run
from repro.ptx import Module
from repro.ptx.builder import KernelBuilder
from repro.workloads import get_workload, workload_names

#: small enough to keep the whole matrix fast, large enough that every
#: workload executes multiple CTAs, divergent branches and all kernels.
DIFF_SCALE = 0.1

ALL_WORKLOADS = workload_names(include_extended=True)


def _trace_bytes(name, engine, tmp_path):
    run = get_workload(name, scale=DIFF_SCALE).run(
        verify=False, engine=engine)
    path = tmp_path / ("%s-%s.trace.gz" % (name, engine))
    save_run(run, str(path))
    return path.read_bytes()


def _registry_snapshot(name, engine):
    """Run ``name`` under ``engine`` inside a fresh registry and return
    the published snapshot.  Only deterministic counts are published
    (the determinism contract), so engines must agree byte-for-byte."""
    from repro.obs.bridge import publish_trace
    from repro.obs.metrics import MetricsRegistry, isolated_registry
    from repro.profiling.trace_profile import profile_trace

    with isolated_registry():
        run = get_workload(name, scale=DIFF_SCALE).run(
            verify=False, engine=engine)
    reg = MetricsRegistry()
    coalescing = profile_trace(run.trace, run.classifications).coalescing
    publish_trace(name, run, coalescing, reg)
    return reg.snapshot()


@pytest.mark.parametrize("name", ALL_WORKLOADS)
def test_engines_produce_identical_traces(name, tmp_path):
    scalar = _trace_bytes(name, "scalar", tmp_path)
    for engine in ("vectorized", "compiled"):
        other = _trace_bytes(name, engine, tmp_path)
        assert other == scalar, (
            "engine divergence for %r: %s trace differs from scalar"
            % (name, engine))


@pytest.mark.parametrize("name", ALL_WORKLOADS)
def test_engines_produce_identical_metrics_snapshots(name):
    scalar = _registry_snapshot(name, "scalar")
    for engine in ("vectorized", "compiled"):
        other = _registry_snapshot(name, engine)
        assert other == scalar, (
            "engine divergence for %r: %s metrics snapshot differs "
            "from scalar" % (name, engine))


def test_emulator_registry_series_engine_invariant():
    """The counters the emulator itself publishes during launch()
    (launches / ctas / warp_insts) carry no engine identity and agree
    across engines — engine identity lives in span attributes only."""
    from repro.obs.metrics import isolated_registry

    def emulate_counts(engine):
        with isolated_registry() as reg:
            get_workload("bfs", scale=DIFF_SCALE).run(
                verify=False, engine=engine)
            return reg.snapshot()["counters"]

    scalar = emulate_counts("scalar")
    for engine in ("vectorized", "compiled"):
        other = emulate_counts(engine)
        assert scalar["emulator.warp_insts"] == other["emulator.warp_insts"]
        assert scalar["emulator.launches"] == other["emulator.launches"]
        assert scalar == other


@pytest.mark.parametrize("engine", ["scalar", "compiled"])
def test_engine_selectable_via_run(engine):
    run = get_workload("bfs", scale=DIFF_SCALE).run(engine=engine)
    assert run.trace.total_warp_instructions() > 0


def test_unknown_engine_rejected():
    from repro.emulator import Emulator, MemoryImage
    with pytest.raises(ValueError, match="engine"):
        Emulator(MemoryImage(), engine="simd-on-a-stick")


def test_save_run_is_deterministic(tmp_path):
    """Two serializations of the same run are byte-identical (the
    content-addressed trace cache and this module's file-level engine
    comparison both rely on it)."""
    run = get_workload("spmv", scale=DIFF_SCALE).run(verify=False)
    a = tmp_path / "a.trace.gz"
    b = tmp_path / "b.trace.gz"
    save_run(run, str(a))
    save_run(run, str(b))
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# adversarial-operand differential suite
# ---------------------------------------------------------------------------
#
# The registered workloads exercise "reasonable" arithmetic; the scalar
# and vectorized engines can agree on all of them while still
# disagreeing at the edges of two's-complement arithmetic (INT_MIN
# division, out-of-range shift counts, signed high-multiply).  These
# tests generate seeded kernels whose operands are drawn exclusively
# from that adversarial set and require byte-identical traces and
# identical final memory from both engines.

_ADV_INT32 = (0, 1, 2, 7, -1, -7, 12345, -12345, 2**31 - 1, -2**31)
_ADV_INT64 = _ADV_INT32 + (2**63 - 1, -2**63)
_ADV_SHIFTS = (0, 1, 31, 32, 33, 63, 64, 65)


class _BuiltRun:
    """Just enough of a WorkloadRun for save_run()."""

    def __init__(self, module, trace):
        self.module = module
        self.trace = trace


def _imm_or_reg(rng, b, reg, pool, nonzero=False):
    if rng.random() < 0.5:
        return reg
    values = [v for v in pool if v] if nonzero else list(pool)
    return b.imm(rng.choice(values))


def _build_adversarial_kernel(seed, steps=12):
    """A seeded kernel chaining shift/div/rem/mul.hi ops over operands
    drawn from the adversarial pools, accumulator-folded so every
    intermediate feeds the final stores."""
    rng = random.Random(seed)
    b = KernelBuilder("adv%d" % seed)
    out = b.param("out", "u64")
    tid = b.emit("mov.u32", b.reg("r"), b.sreg("%tid.x"))
    tid64 = b.emit("cvt.u64.u32", b.reg("rd"), tid)
    acc32 = b.emit("add.u32", b.reg("r"), tid, b.imm(0x10001))
    acc64 = b.emit("add.u64", b.reg("rd"), tid64,
                   b.imm(0x1234567890ABCDEF))
    # lane-varying shift counts spanning the 32- and 64-bit boundaries
    shreg = b.emit("add.u32", b.reg("r"), tid, b.imm(30))  # 30..93
    for _ in range(steps):
        kind = rng.choice(("shift32", "shift64", "divrem32", "divrem64",
                           "mulhi32", "mulhi64", "mulwide"))
        if kind == "shift32":
            mnem = rng.choice(("shl.b32", "shr.u32", "shr.s32"))
            a = _imm_or_reg(rng, b, acc32, _ADV_INT32)
            sh = (shreg if rng.random() < 0.5
                  else b.imm(rng.choice(_ADV_SHIFTS)))
            res = b.emit(mnem, b.reg("r"), a, sh)
            acc32 = b.emit("xor.b32", b.reg("r"), acc32, res)
        elif kind == "shift64":
            mnem = rng.choice(("shl.b64", "shr.u64", "shr.s64"))
            a = _imm_or_reg(rng, b, acc64, _ADV_INT64)
            sh = (shreg if rng.random() < 0.5
                  else b.imm(rng.choice(_ADV_SHIFTS)))
            res = b.emit(mnem, b.reg("rd"), a, sh)
            acc64 = b.emit("xor.b64", b.reg("rd"), acc64, res)
        elif kind == "divrem32":
            mnem = rng.choice(("div.u32", "div.s32", "rem.u32", "rem.s32"))
            a = _imm_or_reg(rng, b, acc32, _ADV_INT32)
            if rng.random() < 0.5:
                d = b.emit("or.b32", b.reg("r"), acc32, b.imm(1))
            else:
                d = b.imm(rng.choice([v for v in _ADV_INT32 if v]))
            res = b.emit(mnem, b.reg("r"), a, d)
            acc32 = b.emit("xor.b32", b.reg("r"), acc32, res)
        elif kind == "divrem64":
            mnem = rng.choice(("div.u64", "div.s64", "rem.u64", "rem.s64"))
            a = _imm_or_reg(rng, b, acc64, _ADV_INT64)
            if rng.random() < 0.5:
                d = b.emit("or.b64", b.reg("rd"), acc64, b.imm(1))
            else:
                d = b.imm(rng.choice([v for v in _ADV_INT64 if v]))
            res = b.emit(mnem, b.reg("rd"), a, d)
            acc64 = b.emit("xor.b64", b.reg("rd"), acc64, res)
        elif kind == "mulhi32":
            mnem = rng.choice(("mul.hi.u32", "mul.hi.s32", "mul.lo.s32"))
            a = _imm_or_reg(rng, b, acc32, _ADV_INT32)
            c = _imm_or_reg(rng, b, acc32, _ADV_INT32)
            res = b.emit(mnem, b.reg("r"), a, c)
            acc32 = b.emit("xor.b32", b.reg("r"), acc32, res)
        elif kind == "mulhi64":
            mnem = rng.choice(("mul.hi.u64", "mul.hi.s64", "mul.lo.u64"))
            a = _imm_or_reg(rng, b, acc64, _ADV_INT64)
            c = _imm_or_reg(rng, b, acc64, _ADV_INT64)
            res = b.emit(mnem, b.reg("rd"), a, c)
            acc64 = b.emit("xor.b64", b.reg("rd"), acc64, res)
        else:  # mulwide: 32-bit operands, 64-bit result
            mnem = rng.choice(("mul.wide.u32", "mul.wide.s32"))
            a = _imm_or_reg(rng, b, acc32, _ADV_INT32)
            c = _imm_or_reg(rng, b, acc32, _ADV_INT32)
            res = b.emit(mnem, b.reg("rd"), a, c)
            acc64 = b.emit("xor.b64", b.reg("rd"), acc64, res)
    base = b.emit("ld.param.u64", b.reg("rd"), b.mem(out))
    off64 = b.emit("shl.b64", b.reg("rd"), tid64, b.imm(3))
    addr64 = b.emit("add.u64", b.reg("rd"), base, off64)
    b.emit("st.global.u64", b.mem(addr64), acc64)
    off32 = b.emit("shl.b64", b.reg("rd"), tid64, b.imm(2))
    addr32 = b.emit("add.u64", b.reg("rd"), base, off32)
    addr32 = b.emit("add.u64", b.reg("rd"), addr32, b.imm(512))
    b.emit("st.global.u32", b.mem(addr32), acc32)
    b.emit("exit")
    return b.build()


def _adversarial_outcome(kernel, engine, tmp_path):
    """(serialized trace bytes, final out-buffer bytes) for one engine."""
    mem = MemoryImage()
    base = mem.alloc("out", 64 * 8 + 64 * 4)
    emu = Emulator(mem, engine=engine)
    app = ApplicationTrace(name=kernel.name)
    app.add(emu.launch(kernel, (1, 1, 1), (64, 1, 1), {"out": base}))
    module = Module()
    module.add(kernel)
    path = tmp_path / ("%s-%s.trace.gz" % (kernel.name, engine))
    save_run(_BuiltRun(module, app), str(path))
    return path.read_bytes(), mem.read_array("out", np.uint8).tobytes()


@pytest.mark.parametrize("seed", range(8))
def test_adversarial_operands_engines_agree(seed, tmp_path):
    kernel = _build_adversarial_kernel(seed)
    s_trace, s_mem = _adversarial_outcome(kernel, "scalar", tmp_path)
    for engine in ("vectorized", "compiled"):
        e_trace, e_mem = _adversarial_outcome(kernel, engine, tmp_path)
        assert e_mem == s_mem, (
            "engine divergence for adversarial seed %d: final memory "
            "(%s)" % (seed, engine))
        assert e_trace == s_trace, (
            "engine divergence for adversarial seed %d: traces (%s)"
            % (seed, engine))


def _probe(mnemonic, a, c, store, engine):
    """Run `res = mnemonic(a, c); *out = res` on one thread; returns the
    stored bit pattern."""
    kb = KernelBuilder("probe")
    out = kb.param("out", "u64")
    res = kb.emit(mnemonic, kb.reg("r"), kb.imm(a), kb.imm(c))
    ptr = kb.emit("ld.param.u64", kb.reg("rd"), kb.mem(out))
    kb.emit(store, kb.mem(ptr), res)
    kb.emit("exit")
    kernel = kb.build()
    mem = MemoryImage()
    base = mem.alloc("out", 8)
    Emulator(mem, engine=engine).launch(
        kernel, (1, 1, 1), (1, 1, 1), {"out": base})
    np_dtype = np.uint32 if store.endswith("u32") else np.uint64
    return int(mem.read_array("out", np_dtype)[0])


@pytest.mark.parametrize("engine",
                         ["scalar", "vectorized", "compiled"])
@pytest.mark.parametrize("mnemonic,a,c,store,expected", [
    # INT_MIN / -1 wraps to INT_MIN (two's-complement overflow)
    ("div.s32", -2**31, -1, "st.global.u32", 0x80000000),
    ("div.s64", -2**63, -1, "st.global.u64", 2**63),
    # rem truncates toward zero: sign follows the dividend
    ("rem.s32", -7, 3, "st.global.u32", 0xFFFFFFFF),   # -1
    ("rem.s32", 7, -3, "st.global.u32", 1),
    ("rem.s64", -2**63, -1, "st.global.u64", 0),
    # shifts clamp at the register width instead of wrapping mod width
    ("shl.b32", 1, 31, "st.global.u32", 0x80000000),
    ("shl.b32", 1, 32, "st.global.u32", 0),
    ("shl.b32", 1, 33, "st.global.u32", 0),
    ("shr.u32", 0x80000000, 33, "st.global.u32", 0),
    ("shr.s32", -8, 33, "st.global.u32", 0xFFFFFFFF),  # arithmetic fill
    ("shl.b64", 1, 63, "st.global.u64", 2**63),
    ("shl.b64", 1, 64, "st.global.u64", 0),
    ("shr.u64", 2**63, 65, "st.global.u64", 0),
    ("shr.s64", -8, 65, "st.global.u64", 2**64 - 1),
    # signed high multiply of negative operands
    ("mul.hi.s32", -7, 3, "st.global.u32", 0xFFFFFFFF),  # -1
    ("mul.hi.s32", -2**31, -2**31, "st.global.u32", 0x40000000),
    ("mul.hi.u32", 2**32 - 1, 2**32 - 1, "st.global.u32", 0xFFFFFFFE),
    ("mul.hi.s64", -2**63, -2**63, "st.global.u64", 2**62),
])
def test_signed_edge_semantics(mnemonic, a, c, store, expected, engine):
    assert _probe(mnemonic, a, c, store, engine) == expected
