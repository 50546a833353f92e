"""End-to-end tests of the timing simulator on real kernel traces."""

import numpy as np
import pytest

from repro.core import classify_kernel
from repro.emulator import Emulator, MemoryImage
from repro.ptx import parse_kernel
from repro.sim import GPU, TINY
from repro.sim.coalescer import pc_class_map
from repro.sim.gpu import SimulationError

STREAM = """
.entry stream ( .param .u64 a, .param .u64 b, .param .u32 n )
{
    mov.u32 %r1, %ctaid.x;
    mov.u32 %r2, %ntid.x;
    mov.u32 %r3, %tid.x;
    mad.lo.u32 %r4, %r1, %r2, %r3;
    ld.param.u32 %r5, [n];
    setp.ge.u32 %p1, %r4, %r5;
    @%p1 bra EXIT;
    ld.param.u64 %rd1, [a];
    cvt.u64.u32 %rd2, %r4;
    shl.b64 %rd3, %rd2, 2;
    add.u64 %rd4, %rd1, %rd3;
    ld.global.f32 %f1, [%rd4];
    add.f32 %f2, %f1, 1.0;
    ld.param.u64 %rd5, [b];
    add.u64 %rd6, %rd5, %rd3;
    st.global.f32 [%rd6], %f2;
EXIT:
    exit;
}
"""

REREAD = """
.entry reread ( .param .u64 a, .param .u64 b, .param .u32 n )
{
    mov.u32 %r1, %ctaid.x;
    mov.u32 %r2, %ntid.x;
    mov.u32 %r3, %tid.x;
    mad.lo.u32 %r4, %r1, %r2, %r3;
    ld.param.u32 %r5, [n];
    setp.ge.u32 %p1, %r4, %r5;
    @%p1 bra EXIT;
    ld.param.u64 %rd1, [a];
    cvt.u64.u32 %rd2, %r4;
    shl.b64 %rd3, %rd2, 2;
    add.u64 %rd4, %rd1, %rd3;
    ld.global.f32 %f1, [%rd4];
    ld.global.f32 %f2, [%rd4];     // same address again: should hit
    add.f32 %f3, %f1, %f2;
    ld.param.u64 %rd5, [b];
    add.u64 %rd6, %rd5, %rd3;
    st.global.f32 [%rd6], %f3;
EXIT:
    exit;
}
"""


def trace_of(ptx, n=256, block=64):
    kernel = parse_kernel(ptx)
    mem = MemoryImage()
    pa = mem.alloc_array("a", np.zeros(n, dtype=np.float32))
    pb = mem.alloc("b", n * 4)
    emu = Emulator(mem)
    trace = emu.launch(kernel, (n + block - 1) // block, block,
                       {"a": pa, "b": pb, "n": n})
    return kernel, trace


class TestLaunchReplay:
    def test_stream_kernel_completes(self):
        kernel, trace = trace_of(STREAM)
        gpu = GPU(TINY)
        stats = gpu.run_launch(trace, classify_kernel(kernel))
        assert stats.cycles > 0
        assert stats.issued_warp_insts == trace.total_warp_instructions()
        assert stats.global_load_insts == trace.global_load_warp_count()

    def test_cold_loads_miss(self):
        kernel, trace = trace_of(STREAM)
        gpu = GPU(TINY)
        stats = gpu.run_launch(trace, classify_kernel(kernel))
        cls = stats.classes["D"]
        assert cls.l1_miss > 0
        assert cls.l1_miss_ratio() == pytest.approx(1.0)

    def test_reread_hits_in_l1(self):
        kernel, trace = trace_of(REREAD)
        gpu = GPU(TINY)
        stats = gpu.run_launch(trace, classify_kernel(kernel))
        cls = stats.classes["D"]
        # the second load of each address hits (or merges) in L1
        assert cls.l1_hit + cls.l1_hit_reserved >= cls.l1_miss

    def test_coalescing_stats(self):
        kernel, trace = trace_of(STREAM, n=256, block=64)
        gpu = GPU(TINY)
        stats = gpu.run_launch(trace, classify_kernel(kernel))
        cls = stats.classes["D"]
        # fully coalesced: one 128 B request per 32-lane warp load, but a
        # 64-thread block with 4-byte elements spans 2 blocks per warp? no:
        # each 32-lane warp covers exactly 128 bytes -> 1 request
        assert cls.requests_per_warp() == pytest.approx(1.0)

    def test_turnaround_recorded(self):
        kernel, trace = trace_of(STREAM)
        gpu = GPU(TINY)
        stats = gpu.run_launch(trace, classify_kernel(kernel))
        cls = stats.classes["D"]
        assert cls.completed == trace.global_load_warp_count()
        assert cls.mean_turnaround() >= TINY.unloaded_l2_hit_latency

    def test_unit_busy_accounting(self):
        kernel, trace = trace_of(STREAM)
        gpu = GPU(TINY)
        stats = gpu.run_launch(trace, classify_kernel(kernel))
        assert stats.unit_busy["sp"] > 0
        assert stats.unit_busy["ldst"] > 0
        assert stats.active_sm_cycles > 0
        idle = stats.unit_idle_fractions()
        assert 0.0 <= idle["ldst"] <= 1.0

    def test_without_classification_counts_as_other(self):
        _kernel, trace = trace_of(STREAM)
        gpu = GPU(TINY)
        stats = gpu.run_launch(trace, None)
        assert stats.classes["other"].warp_insts > 0
        assert stats.classes["D"].warp_insts == 0

    def test_multiple_launches_accumulate(self):
        kernel, trace = trace_of(STREAM)
        gpu = GPU(TINY)
        classification = classify_kernel(kernel)
        gpu.run_launch(trace, classification)
        first = gpu.stats.issued_warp_insts
        gpu.run_launch(trace, classification)
        assert gpu.stats.issued_warp_insts == 2 * first

    def test_run_application_rewrites_one_launch_at_a_time(self):
        kernel, trace = trace_of(STREAM)
        classification = classify_kernel(kernel)
        seen = []

        def rewrite(launch, cls):
            assert cls is classification
            seen.append(launch)
            return launch

        stats = GPU(TINY).run_application([trace, trace],
                                          {kernel.name: classification},
                                          rewrite=rewrite)
        assert seen == [trace, trace]
        plain = GPU(TINY).run_application([trace, trace],
                                          {kernel.name: classification})
        assert stats.cycles == plain.cycles
        assert stats.issued_warp_insts == \
            2 * trace.total_warp_instructions()

    def test_clustered_policy_runs(self):
        kernel, trace = trace_of(STREAM)
        gpu = GPU(TINY.scaled(cta_policy="clustered"))
        stats = gpu.run_launch(trace, classify_kernel(kernel))
        assert stats.issued_warp_insts == trace.total_warp_instructions()

    def test_cycle_budget_guard(self):
        kernel, trace = trace_of(STREAM)
        gpu = GPU(TINY, max_cycles=10)
        with pytest.raises(SimulationError):
            gpu.run_launch(trace, classify_kernel(kernel))


class TestClassMap:
    def test_accepts_dict(self):
        assert pc_class_map({8: "D"}) == {8: "D"}

    def test_accepts_none(self):
        assert pc_class_map(None) == {}

    def test_accepts_classification(self):
        kernel, _ = trace_of(STREAM)
        result = classify_kernel(kernel)
        mapping = pc_class_map(result)
        assert set(mapping.values()) == {"D"}

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            pc_class_map(42)


class TestPartitionMapping:
    def test_default_interleave(self):
        gpu = GPU(TINY)
        line = TINY.l1_line_size
        parts = [gpu.partition_of(0, b * line)
                 for b in range(TINY.num_partitions * 2)]
        assert parts == list(range(TINY.num_partitions)) * 2
