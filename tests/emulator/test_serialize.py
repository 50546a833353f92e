"""Tests for trace serialization / trace-driven replay."""

import hashlib

import pytest

from repro.emulator.serialize import FORMAT_VERSION, MAGIC, load_run, save_run
from repro.sim import GPU, TINY


def simulate(trace, classifications, config=TINY):
    gpu = GPU(config)
    for launch in trace:
        gpu.run_launch(launch, classifications.get(launch.kernel_name))
    return gpu.stats


class TestRoundtrip:
    def test_counts_preserved(self, bfs_run, tmp_path):
        path = str(tmp_path / "bfs.trace")
        save_run(bfs_run, path)
        loaded = load_run(path)
        assert loaded.name == "bfs"
        assert (loaded.trace.total_warp_instructions()
                == bfs_run.trace.total_warp_instructions())
        assert (loaded.trace.global_load_warp_count()
                == bfs_run.trace.global_load_warp_count())
        assert len(loaded.trace) == len(bfs_run.trace)

    def test_addresses_preserved(self, bfs_run, tmp_path):
        path = str(tmp_path / "bfs.trace")
        save_run(bfs_run, path)
        loaded = load_run(path)
        orig_ops = [(op.pc, op.active_mask, op.addresses)
                    for launch in bfs_run.trace
                    for w in launch for op in w.ops]
        new_ops = [(op.pc, op.active_mask, op.addresses)
                   for launch in loaded.trace
                   for w in launch for op in w.ops]
        assert orig_ops == new_ops

    def test_classifications_recomputed_identically(self, bfs_run,
                                                    tmp_path):
        path = str(tmp_path / "bfs.trace")
        save_run(bfs_run, path)
        loaded = load_run(path)
        for name, original in bfs_run.classifications.items():
            reloaded = loaded.classifications[name]
            assert [(ld.pc, str(ld.load_class)) for ld in original] == \
                [(ld.pc, str(ld.load_class)) for ld in reloaded]

    def test_source_lines_preserved(self, bfs_run, tmp_path):
        """Source-line numbers must survive the roundtrip verbatim.

        The payload carries canonical printed PTX, so a plain re-parse
        would re-number instructions against the printed layout and the
        advisor would localize the same load to different PTX lines on
        a cache hit vs. a fresh run.
        """
        path = str(tmp_path / "bfs.trace")
        save_run(bfs_run, path)
        loaded = load_run(path)
        for kernel in bfs_run.module:
            orig = [inst.line for inst in kernel.instructions]
            new = [inst.line
                   for inst in loaded.module[kernel.name].instructions]
            assert orig == new
            assert any(line > 0 for line in orig)
        for name, original in bfs_run.classifications.items():
            reloaded = loaded.classifications[name]
            assert [(ld.pc, ld.instruction.line) for ld in original] == \
                [(ld.pc, ld.instruction.line) for ld in reloaded]

    def test_simulation_equivalence(self, spmv_run, tmp_path):
        """A loaded trace must simulate to the exact same statistics."""
        path = str(tmp_path / "spmv.trace")
        save_run(spmv_run, path)
        loaded = load_run(path)
        original = simulate(spmv_run.trace, spmv_run.classifications)
        replayed = simulate(loaded.trace, loaded.classifications)
        assert original.cycles == replayed.cycles
        assert original.issued_warp_insts == replayed.issued_warp_insts
        assert (original.classes["N"].turnaround_sum
                == replayed.classes["N"].turnaround_sum)

    def test_store_values_preserved(self, bfs_run, tmp_path):
        """Stored values survive the roundtrip exactly."""
        path = str(tmp_path / "bfs.trace")
        save_run(bfs_run, path)
        loaded = load_run(path)
        orig = [(op.pc, op.values)
                for launch in bfs_run.trace for w in launch for op in w.ops
                if op.inst.is_store and op.addresses is not None]
        new = [(op.pc, op.values)
               for launch in loaded.trace for w in launch for op in w.ops
               if op.inst.is_store and op.addresses is not None]
        assert orig and orig == new
        # every store that recorded addresses also carries its values
        for _pc, values in orig:
            assert values is not None

    def test_version_check(self, bfs_run, tmp_path):
        import json
        path = str(tmp_path / "bad.trace")
        head = json.dumps({"version": 99}).encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(MAGIC + len(head).to_bytes(4, "little") + head)
        with pytest.raises(ValueError, match="version"):
            load_run(path)


class TestFormatDetection:
    """load_run accepts the v3 container and nothing else."""

    def test_gzip_payload_rejected(self, tmp_path):
        import gzip
        import json
        path = str(tmp_path / "old.trace")
        with gzip.open(path, "wt") as fh:
            json.dump({"version": 2, "launches": []}, fh)
        with pytest.raises(ValueError, match="not a v3 container"):
            load_run(path)

    def test_byte_deterministic(self, bfs_run, tmp_path):
        a, b = str(tmp_path / "a.trace"), str(tmp_path / "b.trace")
        save_run(bfs_run, a)
        save_run(bfs_run, b)
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()

    def test_garbage_rejected(self, tmp_path):
        path = str(tmp_path / "noise.trace")
        with open(path, "wb") as fh:
            fh.write(b"NOTATRACEFILE AT ALL")
        with pytest.raises(ValueError, match="version"):
            load_run(path)

    def test_loaded_launches_are_columnar(self, bfs_run, tmp_path):
        from repro.emulator.columnar import ColumnarLaunchTrace
        path = str(tmp_path / "bfs.trace")
        save_run(bfs_run, path)
        loaded = load_run(path)
        assert len(loaded.trace) > 0
        assert all(isinstance(launch, ColumnarLaunchTrace)
                   for launch in loaded.trace)


class TestPinnedFormat:
    """``save_run`` bytes are pinned: a container written by an earlier
    build of schema v3 loads and re-saves to the same bytes.  Together
    these runs cover multi-launch, store-heavy and ``.v2``/``.v4``
    vector traces."""

    #: sha256 of ``save_run`` output at scale 0.05, seed 1
    DIGESTS = {
        "bfs": "44f0e00114891acfc084efa396d44a17"
               "6be6eca617f8c7c9936c7221594e4e21",
        "spmv": "bfb5889b542cda8aa51b0b5e7a87f856"
                "b72a610c5b45f1dace2bad6dd8a8bafe",
        "lu": "90595f93fe155ea03722b43b99d86014"
              "d09b8bdd5a0f06f37d6f19055858a88a",
        "2mm": "d1fcc0a8deb8c118188dc5a8e38f668e"
               "3e98899a270807c950e252dccf8a4493",
    }

    @pytest.mark.parametrize("app", sorted(DIGESTS))
    def test_bytes_match_the_pinned_digest(self, app, tmp_path):
        from repro.workloads import get_workload

        path = tmp_path / "run.trace"
        save_run(get_workload(app, scale=0.05, seed=1).run(), str(path))
        assert (hashlib.sha256(path.read_bytes()).hexdigest()
                == self.DIGESTS[app])
        again = tmp_path / "again.trace"
        save_run(load_run(str(path)), str(again))
        assert again.read_bytes() == path.read_bytes()


class TestTruncation:
    """A torn write surfaces as EOFError (retried by the trace cache),
    not as a corrupt-file ValueError."""

    def _saved(self, run, tmp_path):
        path = tmp_path / "bfs.trace"
        save_run(run, str(path))
        return path

    def _cut(self, path, size):
        data = path.read_bytes()
        path.write_bytes(data[:size])
        return str(path)

    def test_short_magic(self, bfs_run, tmp_path):
        path = self._cut(self._saved(bfs_run, tmp_path), len(MAGIC) - 3)
        with pytest.raises(EOFError, match="short magic"):
            load_run(path)

    def test_missing_header_length(self, bfs_run, tmp_path):
        path = self._cut(self._saved(bfs_run, tmp_path), len(MAGIC) + 2)
        with pytest.raises(EOFError, match="header length"):
            load_run(path)

    def test_short_header(self, bfs_run, tmp_path):
        path = self._cut(self._saved(bfs_run, tmp_path), len(MAGIC) + 4 + 10)
        with pytest.raises(EOFError, match="short header"):
            load_run(path)

    def test_column_beyond_eof(self, bfs_run, tmp_path):
        saved = self._saved(bfs_run, tmp_path)
        path = self._cut(saved, saved.stat().st_size - 8)
        with pytest.raises(EOFError, match="beyond EOF"):
            load_run(path)


class TestChecksum:
    """The header's column digest catches bit rot the structural checks
    cannot see (an address byte flipped on disk)."""

    def _flip_last_byte(self, run, tmp_path):
        path = tmp_path / "bfs.trace"
        save_run(run, str(path))
        data = bytearray(path.read_bytes())
        # no padding follows the last non-empty column: the final byte
        # is payload (here the high byte of an address or a value)
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        return str(path)

    def test_flipped_column_byte_rejected(self, bfs_run, tmp_path):
        from repro.resilience.artifacts import ChecksumError
        path = self._flip_last_byte(bfs_run, tmp_path)
        with pytest.raises(ChecksumError):
            load_run(path)


class TestSchemaV3Integrity:
    """The v3 kind column is redundant with the instruction, so a
    mismatch (or a dropped kind on an op with accesses) is corruption."""

    def _tampered(self, run, tmp_path, mutate):
        """Rewrite the v3 container with ``mutate(name, array)`` applied
        to each column of the first launch."""
        import json

        import numpy as np

        from repro.emulator.columnar import COLUMNS
        from repro.emulator.serialize import (
            ALIGN,
            _launch_header_and_columns,
        )

        launches, blobs = [], []
        for i, launch in enumerate(run.trace):
            header, arrays = _launch_header_and_columns(launch)
            launches.append(header)
            for name, dt in COLUMNS:
                arr = np.ascontiguousarray(arrays[name], dtype=dt)
                if i == 0:
                    arr = mutate(name, arr.copy())
                blobs.append(arr)
        from repro.ptx import print_module
        head = json.dumps(
            {"version": FORMAT_VERSION, "name": run.trace.name,
             "ptx": print_module(run.module), "launches": launches},
            separators=(",", ":"), sort_keys=True).encode("utf-8")
        path = str(tmp_path / "tampered.trace")
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(len(head).to_bytes(4, "little"))
            fh.write(head)
            pos = len(MAGIC) + 4 + len(head)
            for blob in blobs:
                pad = (pos + ALIGN - 1) // ALIGN * ALIGN - pos
                fh.write(b"\0" * pad)
                data = blob.tobytes()
                fh.write(data)
                pos += pad + len(data)
        return path

    def test_tampered_kind_rejected(self, bfs_run, tmp_path):
        from repro.emulator.columnar import KIND_NONE

        def flip_first_kind(name, arr):
            if name == "kind":
                idx = (arr != KIND_NONE).nonzero()[0][0]
                arr[idx] ^= 1  # flip load<->store in the kind code
            return arr

        with pytest.raises(ValueError, match="access kind"):
            load_run(self._tampered(bfs_run, tmp_path, flip_first_kind))

    def test_missing_kind_rejected(self, bfs_run, tmp_path):
        from repro.emulator.columnar import KIND_NONE

        def drop_first_kind(name, arr):
            if name == "kind":
                idx = (arr != KIND_NONE).nonzero()[0][0]
                arr[idx] = KIND_NONE
            return arr

        with pytest.raises(ValueError, match="access kind"):
            load_run(self._tampered(bfs_run, tmp_path, drop_first_kind))

    def test_inflated_access_count_rejected(self, bfs_run, tmp_path):
        def inflate_acount(name, arr):
            if name == "acount":
                idx = (arr > 0).nonzero()[0][0]
                arr[idx] += 1  # claims one more access than stored
            return arr

        with pytest.raises(ValueError, match="corrupt trace"):
            load_run(self._tampered(bfs_run, tmp_path, inflate_acount))

    def test_pc_beyond_kernel_rejected(self, bfs_run, tmp_path):
        from repro.emulator.columnar import _PC_SHIFT

        def overflow_pc(name, arr):
            if name == "pc":
                arr[0] = (1 << 20) << _PC_SHIFT
            return arr

        with pytest.raises(ValueError, match="beyond kernel"):
            load_run(self._tampered(bfs_run, tmp_path, overflow_pc))

    def test_short_op_counts_rejected(self, bfs_run, tmp_path):
        """Per-warp op counts that stop short of the columns leave rows
        no warp owns."""
        import json

        path = tmp_path / "bfs.trace"
        save_run(bfs_run, str(path))
        data = path.read_bytes()
        hlen = int.from_bytes(data[len(MAGIC):len(MAGIC) + 4], "little")
        head = json.loads(data[len(MAGIC) + 4:len(MAGIC) + 4 + hlen])
        warps = head["launches"][0]["warps"]
        warps[-1][2] -= 1
        new_head = json.dumps(head, separators=(",", ":"),
                              sort_keys=True).encode("utf-8")
        # same-length header keeps every column at its aligned offset
        new_head = new_head.ljust(hlen)
        assert len(new_head) == hlen
        path.write_bytes(data[:len(MAGIC) + 4] + new_head
                         + data[len(MAGIC) + 4 + hlen:])
        with pytest.raises(ValueError, match="do not cover"):
            load_run(str(path))
