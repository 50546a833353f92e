"""Checksummed, atomically-replaced artifacts: the crash-consistency
primitives everything durable is built on."""

import json
import os

import pytest

from repro.resilience.artifacts import (
    CHECKSUM_KEY,
    ChecksumError,
    atomic_write_bytes,
    atomic_write_json,
    attach_checksum,
    checksum_payload,
    compute_checksum,
    verify_checksum,
    verify_payload_checksum,
)


class TestComputeVerify:
    def test_bytes_and_chunks_digest_identically(self):
        whole = compute_checksum(b"abcdef")
        chunked = compute_checksum(iter([b"ab", b"cd", b"ef"]))
        assert whole == chunked
        assert whole["algo"] == "sha256"

    def test_verify_match(self):
        record = compute_checksum(b"payload")
        assert verify_checksum(b"payload", record) is True

    def test_verify_mismatch_raises_with_context(self):
        record = compute_checksum(b"payload")
        with pytest.raises(ChecksumError) as err:
            verify_checksum(b"tampered", record, path="x.trace")
        assert err.value.path == "x.trace"
        assert err.value.algo == record["algo"]
        assert err.value.expected == record["hex"]
        assert err.value.actual != record["hex"]

    def test_checksum_error_is_a_value_error(self):
        # loaders that predate the resilience layer catch ValueError
        assert issubclass(ChecksumError, ValueError)

    def test_missing_record_is_skipped(self):
        assert verify_checksum(b"data", None) is None
        assert verify_checksum(b"data", {}) is None

    def test_unknown_algorithm_is_skipped_not_rejected(self):
        record = {"algo": "blake4-from-the-future", "hex": "00"}
        assert verify_checksum(b"data", record) is None

    def test_sha256_always_available(self):
        record = compute_checksum(b"data", algo="sha256")
        assert verify_checksum(b"data", record) is True

    def test_unsupported_algo_on_write_is_an_error(self):
        with pytest.raises(ValueError, match="unsupported"):
            compute_checksum(b"data", algo="crc32")


class TestPayloadChecksums:
    def test_attach_then_verify(self):
        payload = attach_checksum({"metrics": {"cycles": 12}, "key": "k"})
        assert verify_payload_checksum(payload) is True

    def test_digest_excludes_its_own_field(self):
        payload = {"a": 1}
        first = checksum_payload(payload)
        payload[CHECKSUM_KEY] = first
        assert checksum_payload(payload) == first

    def test_tampered_payload_raises(self):
        payload = attach_checksum({"metrics": {"cycles": 12}})
        payload["metrics"]["cycles"] = 13
        with pytest.raises(ChecksumError):
            verify_payload_checksum(payload, "point.json")

    def test_unchecked_payload_is_skipped(self):
        assert verify_payload_checksum({"metrics": {}}) is None
        assert verify_payload_checksum(["not", "a", "dict"]) is None

    def test_key_order_does_not_change_the_digest(self):
        assert checksum_payload({"a": 1, "b": 2}) == \
            checksum_payload({"b": 2, "a": 1})


class TestAtomicWrites:
    def test_write_and_replace(self, tmp_path):
        path = tmp_path / "artifact.bin"
        atomic_write_bytes(path, b"old")
        atomic_write_bytes(path, b"new")
        assert path.read_bytes() == b"new"

    def test_no_temporary_residue(self, tmp_path):
        atomic_write_bytes(tmp_path / "a.bin", b"data")
        assert os.listdir(tmp_path) == ["a.bin"]

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "er" / "a.json"
        atomic_write_json(path, {"x": 1})
        assert json.loads(path.read_text()) == {"x": 1}

    def test_json_form_is_canonical(self, tmp_path):
        path = tmp_path / "a.json"
        atomic_write_json(path, {"b": 2, "a": 1})
        text = path.read_text()
        assert text == '{\n  "a": 1,\n  "b": 2\n}\n'

    def test_json_writes_are_deterministic(self, tmp_path):
        payload = {"rows": [{"z": 1, "a": 2}], "n": 3}
        atomic_write_json(tmp_path / "one.json", payload)
        atomic_write_json(tmp_path / "two.json", payload)
        assert (tmp_path / "one.json").read_bytes() == \
            (tmp_path / "two.json").read_bytes()
