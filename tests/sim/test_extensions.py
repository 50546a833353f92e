"""Tests for the simulator extensions: GTO scheduling, shared-memory
bank conflicts, and the Section X.A prefetchers."""

import pytest

from repro.core import classify_kernel
from repro.emulator import Emulator, MemoryImage
from repro.ptx import parse_kernel
from repro.sim import GPU, TINY
from repro.sim.config import check_knobs


class TestConfigValidation:
    def test_scheduler_names(self):
        TINY.scaled(warp_scheduler="gto").validate()
        with pytest.raises(ValueError):
            TINY.scaled(warp_scheduler="fifo").validate()

    def test_prefetcher_names(self):
        TINY.scaled(prefetcher="stride").validate()
        TINY.scaled(prefetcher="indirect_oracle").validate()
        with pytest.raises(ValueError):
            TINY.scaled(prefetcher="magic").validate()

    def test_cta_policy_names(self):
        TINY.scaled(cta_policy="clustered").validate()
        with pytest.raises(ValueError, match="cta_policy"):
            TINY.scaled(cta_policy="random").validate()

    def test_l2_cluster_geometry(self):
        # 2 SMs in one cluster owning both partitions
        TINY.scaled(l2_clusters=2).validate()
        with pytest.raises(ValueError, match="l2_clusters"):
            TINY.scaled(l2_clusters=-1).validate()
        # 6 SMs in 3 clusters cannot share 2 partitions evenly
        with pytest.raises(ValueError, match="num_partitions"):
            TINY.scaled(num_sms=6, l2_clusters=2).validate()

    def test_check_knobs_rejects_negative_counts_and_bad_choices(self):
        assert check_knobs({"l1_size": 0, "cta_policy": "clustered"}) \
            == {"l1_size": 0, "cta_policy": "clustered"}
        with pytest.raises(ValueError, match=">= 0"):
            check_knobs({"l1_size": -1})
        with pytest.raises(ValueError, match="prefetcher"):
            check_knobs({"prefetcher": "magic"})


def run_app(run, config):
    gpu = GPU(config)
    for launch in run.trace:
        gpu.run_launch(launch, run.classifications[launch.kernel_name])
    return gpu.stats


class TestGTOScheduler:
    def test_same_work_as_lrr(self, bfs_run):
        lrr = run_app(bfs_run, TINY.scaled(warp_scheduler="lrr"))
        gto = run_app(bfs_run, TINY.scaled(warp_scheduler="gto"))
        assert lrr.issued_warp_insts == gto.issued_warp_insts
        assert lrr.global_load_insts == gto.global_load_insts

    def test_gto_completes_barrier_kernels(self, bpr_run):
        stats = run_app(bpr_run, TINY.scaled(warp_scheduler="gto"))
        assert stats.issued_warp_insts == \
            bpr_run.trace.total_warp_instructions()

    def test_policies_differ_in_timing(self, twomm_run):
        lrr = run_app(twomm_run, TINY.scaled(warp_scheduler="lrr"))
        gto = run_app(twomm_run, TINY.scaled(warp_scheduler="gto"))
        # both valid simulations; they need not produce identical cycles,
        # but both must finish in a sane range of each other
        assert 0.2 < gto.cycles / lrr.cycles < 5.0


CONFLICT_KERNEL = """
.entry conflict ( .param .u64 out, .param .u32 stride )
{
    .shared .f32 sdata[1024];
    mov.u32 %r1, %tid.x;
    ld.param.u32 %r2, [stride];
    mul.lo.u32 %r3, %r1, %r2;      // word index = tid * stride
    shl.b32 %r4, %r3, 2;
    mov.u32 %r5, sdata;
    add.u32 %r6, %r5, %r4;
    st.shared.f32 [%r6], 1.0;
    ld.shared.f32 %f1, [%r6];
    ld.param.u64 %rd1, [out];
    cvt.u64.u32 %rd2, %r1;
    shl.b64 %rd3, %rd2, 2;
    add.u64 %rd4, %rd1, %rd3;
    st.global.f32 [%rd4], %f1;
    exit;
}
"""


class TestBankConflicts:
    def _run(self, stride):
        mem = MemoryImage()
        out = mem.alloc("out", 32 * 4)
        kernel = parse_kernel(CONFLICT_KERNEL)
        emu = Emulator(mem)
        trace = emu.launch(kernel, 1, 32, {"out": out, "stride": stride})
        gpu = GPU(TINY)
        gpu.run_launch(trace, classify_kernel(kernel))
        return gpu.stats

    def test_unit_stride_conflict_free(self):
        stats = self._run(stride=1)
        assert stats.shared_bank_conflict_cycles == 0

    def test_stride_32_fully_conflicts(self):
        # 32 lanes hitting the same bank: 31 extra port cycles per access
        stats = self._run(stride=32)
        assert stats.shared_bank_conflict_cycles >= 31

    def test_stride_2_halves(self):
        stats = self._run(stride=2)
        # two lanes per bank -> one extra cycle per access
        assert 1 <= stats.shared_bank_conflict_cycles <= 4

    def test_broadcast_is_free(self):
        # all lanes reading the same word broadcasts without conflict
        stats = self._run(stride=0)
        assert stats.shared_bank_conflict_cycles == 0


class TestPrefetchers:
    def test_stride_prefetcher_issues(self, twomm_run):
        stats = run_app(twomm_run, TINY.scaled(prefetcher="stride"))
        assert stats.prefetch_issued > 0

    def test_indirect_oracle_targets_n_loads(self, bfs_run):
        stats = run_app(bfs_run,
                        TINY.scaled(prefetcher="indirect_oracle"))
        assert stats.prefetch_issued > 0

    def test_indirect_oracle_idle_without_n_loads(self, twomm_run):
        stats = run_app(twomm_run,
                        TINY.scaled(prefetcher="indirect_oracle"))
        assert stats.prefetch_issued == 0

    def test_prefetching_preserves_functionality(self, bfs_run):
        base = run_app(bfs_run, TINY)
        pf = run_app(bfs_run, TINY.scaled(prefetcher="indirect_oracle"))
        assert base.issued_warp_insts == pf.issued_warp_insts
        # a prefetch never counts as a demand access
        assert (pf.classes["N"].l1_accesses()
                == base.classes["N"].l1_accesses())

    def test_prefetch_queue_bounded(self, bfs_run):
        config = TINY.scaled(prefetcher="indirect_oracle",
                             prefetch_queue_size=2)
        stats = run_app(bfs_run, config)
        # with a 2-deep queue, drops must occur on bursty N loads
        assert stats.prefetch_issued + stats.prefetch_dropped > 0
