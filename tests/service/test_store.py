"""The artifact store: contract, atomicity, quarantine, locations."""

import json

import pytest

from repro.resilience.artifacts import (
    ChecksumError,
    atomic_write_json,
    attach_checksum,
)
from repro.service.store import LocalDirStore, StoreError, open_store


def _backends(tmp_path):
    return [LocalDirStore(tmp_path / "local")]


class TestContract:
    """The observable behavior every store consumer relies on."""

    def test_put_get_roundtrip(self, tmp_path):
        for store in _backends(tmp_path):
            store.put_bytes("a/b.bin", b"\x00\x01data")
            assert store.get_bytes("a/b.bin") == b"\x00\x01data"
            assert store.exists("a/b.bin")

    def test_missing_key_raises_keyerror(self, tmp_path):
        for store in _backends(tmp_path):
            with pytest.raises(KeyError):
                store.get_bytes("nope.json")
            assert not store.exists("nope.json")

    def test_overwrite_wins(self, tmp_path):
        for store in _backends(tmp_path):
            store.put_bytes("k", b"old")
            store.put_bytes("k", b"new")
            assert store.get_bytes("k") == b"new"

    def test_delete_reports_presence(self, tmp_path):
        for store in _backends(tmp_path):
            store.put_bytes("k", b"x")
            assert store.delete("k") is True
            assert store.delete("k") is False

    def test_keys_sorted_and_prefixed(self, tmp_path):
        for store in _backends(tmp_path):
            for name in ("jobs/b.json", "jobs/a.json", "results/r.json"):
                store.put_bytes(name, b"{}")
            assert store.keys("jobs/") == ["jobs/a.json", "jobs/b.json"]
            assert store.keys() == ["jobs/a.json", "jobs/b.json",
                                    "results/r.json"]

    def test_json_layer_checksum_verified(self, tmp_path):
        for store in _backends(tmp_path):
            store.put_json("r.json", attach_checksum({"x": 1}))
            assert store.get_json("r.json")["x"] == 1
            # corrupt the payload under the checksum
            raw = json.loads(store.get_bytes("r.json").decode())
            raw["x"] = 2
            store.put_bytes("r.json",
                            json.dumps(raw).encode())
            with pytest.raises(ChecksumError):
                store.get_json("r.json")
            assert store.get_json("r.json", verify=False)["x"] == 2

    def test_put_file_producer(self, tmp_path):
        for store in _backends(tmp_path):
            store.put_file("t.trace",
                           lambda p: open(p, "wb").write(b"trace!"))
            assert store.get_bytes("t.trace") == b"trace!"

    def test_bad_keys_rejected(self, tmp_path):
        for store in _backends(tmp_path):
            for bad in ("", "../escape", "a/../../b"):
                with pytest.raises(StoreError):
                    store.put_bytes(bad, b"x")


class TestLocalDirStore:
    def test_json_bytes_match_atomic_write_json(self, tmp_path):
        """put_json and atomic_write_json produce identical bytes —
        store-written artifacts stay readable by every legacy path."""
        payload = {"b": 2, "a": [1, {"c": None}]}
        store = LocalDirStore(tmp_path / "s")
        store.put_json("x.json", payload)
        atomic_write_json(tmp_path / "ref.json", payload)
        assert (tmp_path / "s" / "x.json").read_bytes() \
            == (tmp_path / "ref.json").read_bytes()

    def test_absolute_key_rejected(self, tmp_path):
        store = LocalDirStore(tmp_path)
        with pytest.raises(StoreError):
            store.put_bytes("/etc/passwd", b"x")

    def test_quarantine_moves_to_corrupt_sidecar(self, tmp_path):
        store = LocalDirStore(tmp_path)
        store.put_bytes("bad.json", b"garbage")
        store.quarantine("bad.json", kind="test", reason="unreadable")
        assert not store.exists("bad.json")
        assert "bad.json" not in store.keys()
        corrupt = list((tmp_path / ".corrupt").iterdir())
        assert len(corrupt) == 1

    def test_keys_skip_quarantine_and_temps(self, tmp_path):
        store = LocalDirStore(tmp_path)
        store.put_bytes("good.json", b"{}")
        (tmp_path / ".corrupt").mkdir()
        (tmp_path / ".corrupt" / "old.json").write_bytes(b"x")
        (tmp_path / ".tmp-partial-").write_bytes(b"x")
        assert store.keys() == ["good.json"]

    def test_path_of_enables_mmap_loads(self, tmp_path):
        store = LocalDirStore(tmp_path)
        store.put_bytes("k.trace", b"bytes")
        assert store.path_of("k.trace").read_bytes() == b"bytes"

    def test_failed_producer_publishes_nothing(self, tmp_path):
        store = LocalDirStore(tmp_path)

        def producer(path):
            open(path, "wb").write(b"half a tr")
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            store.put_file("t.trace", producer)
        assert not store.exists("t.trace")
        assert list(tmp_path.iterdir()) == []

    def test_sibling_roots_are_isolated(self, tmp_path):
        one = LocalDirStore(tmp_path / "one")
        two = LocalDirStore(tmp_path / "two")
        one.put_bytes("k", b"1")
        two.put_bytes("k", b"2")
        assert one.get_bytes("k") == b"1"
        assert two.get_bytes("k") == b"2"
        assert one.keys() == ["k"]


class TestOpenStore:
    def test_plain_path_and_file_url(self, tmp_path):
        for url in (str(tmp_path / "a"), "file://%s" % (tmp_path / "b")):
            store = open_store(url)
            assert isinstance(store, LocalDirStore)

    def test_file_url_resolves_to_its_path(self, tmp_path):
        store = open_store("file://%s" % (tmp_path / "s"))
        assert store.describe() == str(tmp_path / "s")
        store.put_bytes("k", b"x")
        assert (tmp_path / "s" / "k").read_bytes() == b"x"

    def test_empty_rejected(self):
        with pytest.raises(StoreError):
            open_store("")
