"""Tests for the content-addressed on-disk trace cache."""

import gzip

import pytest

from repro.emulator import serialize, trace_cache
from repro.emulator.machine import EMULATOR_VERSION
from repro.ptx import parse_module, print_module
from repro.workloads import get_workload

SCALE = 0.1


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Point the cache at a per-test directory and ensure it's enabled."""
    monkeypatch.setenv("REPRO_TRACE_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
    return tmp_path / "cache"


@pytest.fixture(scope="module")
def bfs_small():
    workload = get_workload("bfs", scale=SCALE)
    run = workload.run(verify=False)
    ptx = print_module(parse_module(workload.ptx()))
    return workload, run, ptx


def _key(workload, ptx, **overrides):
    kwargs = {
        "name": workload.name,
        "ptx": ptx,
        "seed": workload.seed,
        "scale": workload.scale,
    }
    kwargs.update(overrides)
    return trace_cache.trace_key(**kwargs)


class TestKeying:
    def test_roundtrip_hit(self, bfs_small):
        workload, run, ptx = bfs_small
        key = _key(workload, ptx)
        assert trace_cache.lookup(key) is None
        assert trace_cache.store(key, run) is not None
        loaded = trace_cache.lookup(key)
        assert loaded is not None
        assert loaded.name == "bfs"
        assert (loaded.trace.total_warp_instructions()
                == run.trace.total_warp_instructions())
        ops = [(op.pc, op.active_mask, op.addresses)
               for launch in run.trace for w in launch for op in w.ops]
        loaded_ops = [(op.pc, op.active_mask, op.addresses)
                      for launch in loaded.trace
                      for w in launch for op in w.ops]
        assert ops == loaded_ops

    def test_key_is_stable(self, bfs_small):
        workload, _, ptx = bfs_small
        assert _key(workload, ptx) == _key(workload, ptx)

    def test_changed_ptx_misses(self, bfs_small):
        workload, run, ptx = bfs_small
        trace_cache.store(_key(workload, ptx), run)
        edited = ptx.replace("bfs", "bfs_edited", 1)
        assert edited != ptx
        assert trace_cache.lookup(_key(workload, edited)) is None

    def test_changed_seed_misses(self, bfs_small):
        workload, run, ptx = bfs_small
        trace_cache.store(_key(workload, ptx), run)
        assert trace_cache.lookup(
            _key(workload, ptx, seed=workload.seed + 1)) is None

    def test_changed_scale_misses(self, bfs_small):
        workload, run, ptx = bfs_small
        trace_cache.store(_key(workload, ptx), run)
        assert trace_cache.lookup(
            _key(workload, ptx, scale=workload.scale * 2)) is None

    def test_emulator_bump_changes_key(self, bfs_small, monkeypatch):
        workload, _, ptx = bfs_small
        before = _key(workload, ptx)
        monkeypatch.setattr(trace_cache, "EMULATOR_VERSION",
                            EMULATOR_VERSION + 1)
        assert _key(workload, ptx) != before

    def test_format_bump_keeps_key(self, bfs_small, monkeypatch):
        """The serialization format is not keyed: bumping it leaves
        every key alone (entries the new loader cannot read regenerate
        through the corrupt-entry path)."""
        workload, _, ptx = bfs_small
        before = _key(workload, ptx)
        monkeypatch.setattr(serialize, "FORMAT_VERSION",
                            serialize.FORMAT_VERSION + 1)
        assert _key(workload, ptx) == before


class TestRobustness:
    def test_corrupt_entry_is_a_miss_and_removed(self, bfs_small):
        workload, run, ptx = bfs_small
        key = _key(workload, ptx)
        trace_cache.store(key, run)
        path = trace_cache.entry_path(key)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert trace_cache.lookup(key) is None
        assert not path.exists()

    def test_garbage_gzip_is_a_miss(self, bfs_small):
        workload, run, ptx = bfs_small
        key = _key(workload, ptx)
        trace_cache.store(key, run)
        path = trace_cache.entry_path(key)
        with gzip.open(path, "wt") as fh:
            fh.write("this is not a trace payload")
        assert trace_cache.lookup(key) is None

    def test_truncated_entry_counts_as_corrupt(self, bfs_small):
        from repro.obs.metrics import isolated_registry
        workload, run, ptx = bfs_small
        key = _key(workload, ptx)
        trace_cache.store(key, run)
        path = trace_cache.entry_path(key)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with isolated_registry() as reg:
            assert trace_cache.lookup(key) is None
            corrupt = reg.get("trace_cache.corrupt")
            assert corrupt is not None and corrupt.total() == 1

    def test_corrupt_entry_is_quarantined(self, bfs_small):
        from repro.obs.metrics import isolated_registry
        from repro.resilience.quarantine import quarantined_entries
        workload, run, ptx = bfs_small
        key = _key(workload, ptx)
        trace_cache.store(key, run)
        path = trace_cache.entry_path(key)
        path.write_bytes(b"REPROTRC" + b"\xff" * 64)
        with isolated_registry() as reg:
            assert trace_cache.lookup(key) is None
            quarantined = reg.get("trace_cache.quarantined")
            assert quarantined is not None and quarantined.total() == 1
        assert not path.exists()
        entries = quarantined_entries(trace_cache.cache_dir())
        assert [e.name for e in entries] == [path.name]
        # the next store heals the entry and the hit returns
        trace_cache.store(key, run)
        assert trace_cache.lookup(key) is not None

    def test_checksum_mismatch_is_corrupt(self, bfs_small):
        """A bit flip in the column payload (beyond the structural
        invariants) trips the container checksum on load."""
        from repro.obs.metrics import isolated_registry
        workload, run, ptx = bfs_small
        key = _key(workload, ptx)
        trace_cache.store(key, run)
        path = trace_cache.entry_path(key)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0x40  # last byte: deep inside the value columns
        path.write_bytes(bytes(raw))
        with isolated_registry() as reg:
            assert trace_cache.lookup(key) is None
            corrupt = reg.get("trace_cache.corrupt")
            assert corrupt is not None and corrupt.total() == 1
        assert not path.exists()

    def test_hit_shares_the_callers_module(self, bfs_small):
        """A lookup given the caller's parsed module and its printed
        text loads the trace onto that module instead of parsing the
        entry's copy."""
        workload, run, ptx = bfs_small
        key = _key(workload, ptx)
        trace_cache.store(key, run, ptx=ptx)
        module = parse_module(workload.ptx())
        loaded = trace_cache.lookup(key, module=module, ptx=ptx)
        assert loaded is not None and loaded.module is module
        assert all(launch.instructions
                   is module[launch.kernel_name].instructions
                   for launch in loaded.trace)
        assert loaded.trace.total_warp_instructions() \
            == run.trace.total_warp_instructions()

    def test_foreign_stored_ptx_is_corrupt(self, bfs_small):
        """An entry whose stored text is not the caller's is damaged:
        quarantined and reported as a miss, like unparsable PTX."""
        from repro.obs.metrics import isolated_registry
        workload, run, ptx = bfs_small
        key = _key(workload, ptx)
        trace_cache.store(key, run, ptx=ptx)
        other = parse_module(get_workload("spmv", scale=SCALE).ptx())
        with isolated_registry() as reg:
            assert trace_cache.lookup(key, module=other,
                                      ptx=print_module(other)) is None
            assert reg.get("trace_cache.corrupt").total() == 1
        assert not trace_cache.entry_path(key).exists()

    def test_plain_miss_does_not_count_as_corrupt(self, bfs_small):
        from repro.obs.metrics import isolated_registry
        workload, _, ptx = bfs_small
        with isolated_registry() as reg:
            assert trace_cache.lookup(_key(workload, ptx)) is None
            assert reg.get("trace_cache.corrupt") is None


class TestStorage:
    def test_old_format_entry_is_quarantined(self, bfs_small):
        """A file that is not a v3 container under a live key — such as
        a gzip-JSON trace from an older writer — is a corrupt entry:
        quarantined, reported as a miss, healed by the next store."""
        from repro.obs.metrics import isolated_registry
        from repro.resilience.quarantine import quarantined_entries
        workload, run, ptx = bfs_small
        key = _key(workload, ptx)
        path = trace_cache.entry_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write('{"version": 2, "launches": []}')
        with isolated_registry() as reg:
            assert trace_cache.lookup(key) is None
            assert reg.get("trace_cache.corrupt").total() == 1
        assert not path.exists()
        assert len(list(quarantined_entries(path.parent))) == 1
        trace_cache.store(key, run)
        assert trace_cache.lookup(key) is not None

    def test_store_is_byte_deterministic(self, bfs_small):
        workload, run, ptx = bfs_small
        key = _key(workload, ptx)
        path = trace_cache.store(key, run)
        first = path.read_bytes()
        path = trace_cache.store(key, run)
        assert path.read_bytes() == first

    def test_clear_and_stats(self, bfs_small):
        workload, run, ptx = bfs_small
        trace_cache.store(_key(workload, ptx), run)
        count, total = trace_cache.stats()
        assert count == 1 and total > 0
        assert trace_cache.clear() == 1
        assert trace_cache.stats() == (0, 0)


class TestDisableSwitch:
    def test_disabled_via_env(self, bfs_small, monkeypatch):
        workload, run, ptx = bfs_small
        key = _key(workload, ptx)
        trace_cache.store(key, run)
        monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
        assert not trace_cache.cache_enabled()
        assert trace_cache.lookup(key) is None
        assert trace_cache.store(key, run) is None
        monkeypatch.delenv("REPRO_TRACE_CACHE")
        assert trace_cache.lookup(key) is not None

    def test_enabled_by_default(self):
        assert trace_cache.cache_enabled()


class TestTransientIO:
    @pytest.fixture(autouse=True)
    def no_sleep(self, monkeypatch):
        self.slept = []
        monkeypatch.setattr(trace_cache.time, "sleep", self.slept.append)

    def test_transient_read_error_retried_then_hit(self, bfs_small,
                                                   monkeypatch):
        workload, run, ptx = bfs_small
        key = _key(workload, ptx)
        trace_cache.store(key, run)
        real_load = trace_cache.load_run
        calls = []

        def flaky(path, **front):
            calls.append(path)
            if len(calls) == 1:
                raise OSError("stale NFS handle")
            return real_load(path, **front)

        monkeypatch.setattr(trace_cache, "load_run", flaky)
        loaded = trace_cache.lookup(key)
        assert loaded is not None and loaded.name == "bfs"
        assert len(calls) == 2
        assert self.slept == [trace_cache._RETRY_DELAYS[0]]

    def test_persistent_oserror_is_miss_without_unlink(self, bfs_small,
                                                       monkeypatch):
        """Permission/FS trouble is not evidence the entry is corrupt;
        the file must survive so a healthier process can still hit."""
        workload, run, ptx = bfs_small
        key = _key(workload, ptx)
        trace_cache.store(key, run)

        def broken(path, **front):
            raise OSError("permission denied")

        monkeypatch.setattr(trace_cache, "load_run", broken)
        assert trace_cache.lookup(key) is None
        assert trace_cache.entry_path(key).is_file()

    def test_persistent_truncation_retried_then_removed(self, bfs_small):
        """Stores are atomic, so a short stream that survives the
        retry is real corruption and gets unlinked."""
        workload, run, ptx = bfs_small
        key = _key(workload, ptx)
        trace_cache.store(key, run)
        path = trace_cache.entry_path(key)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert trace_cache.lookup(key) is None
        assert self.slept  # the retry happened first
        assert not path.exists()

    def test_store_retries_transient_write_error(self, bfs_small,
                                                 monkeypatch):
        workload, run, ptx = bfs_small
        key = _key(workload, ptx)
        real_save = trace_cache.save_run
        calls = []

        def flaky(run_, path, **front):
            calls.append(path)
            if len(calls) == 1:
                raise OSError("disk briefly full")
            return real_save(run_, path, **front)

        monkeypatch.setattr(trace_cache, "save_run", flaky)
        path = trace_cache.store(key, run)
        assert path is not None and path.is_file()
        assert len(calls) == 2
        assert trace_cache.lookup(key) is not None

    def test_store_gives_up_after_retries(self, bfs_small, monkeypatch):
        workload, run, ptx = bfs_small
        key = _key(workload, ptx)

        def broken(run_, path, **front):
            raise OSError("read-only filesystem")

        monkeypatch.setattr(trace_cache, "save_run", broken)
        assert trace_cache.store(key, run) is None
        assert len(self.slept) == len(trace_cache._RETRY_DELAYS)
        assert not trace_cache.entry_path(key).exists()
