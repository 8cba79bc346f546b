"""Tests for the checkpoint container format and atomic file writes."""

import json
import os
import zlib

import pytest

from repro.persist.format import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_SCHEMA,
    CheckpointCorruptError,
    CheckpointSchemaError,
    atomic_write_bytes,
    atomic_write_json,
    read_checkpoint_file,
    write_checkpoint_file,
)

SECTIONS = {
    "meta": {"updates_applied": 12, "now": 3.5},
    "master": {"values": [0.1, -0.2, 0.3]},
    "pending": [{"kind": "job", "sequence": 4}],
}


class TestRoundTrip:
    def test_sections_round_trip(self, tmp_path):
        path = tmp_path / "ckpt-000001.eqc"
        size = write_checkpoint_file(path, SECTIONS)
        assert size == path.stat().st_size
        assert read_checkpoint_file(path) == SECTIONS

    def test_magic_and_schema_present(self, tmp_path):
        path = tmp_path / "c.eqc"
        write_checkpoint_file(path, SECTIONS)
        blob = path.read_bytes()
        assert blob.startswith(CHECKPOINT_MAGIC)
        header = json.loads(blob.split(b"\n", 2)[1])
        assert header["schema"] == CHECKPOINT_SCHEMA
        assert [s["name"] for s in header["sections"]] == list(SECTIONS)

    def test_floats_round_trip_bit_exact(self, tmp_path):
        # repr-based JSON floats are exact: the restored parameter vector
        # must be bitwise identical, not merely close.
        values = [0.1 + 0.2, 1e-308, 123456.789012345678, -0.0]
        path = tmp_path / "c.eqc"
        write_checkpoint_file(path, {"v": values})
        assert read_checkpoint_file(path)["v"] == values


class TestCorruption:
    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(CheckpointCorruptError):
            read_checkpoint_file(tmp_path / "nope.eqc")

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "c.eqc"
        write_checkpoint_file(path, SECTIONS)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointCorruptError):
            read_checkpoint_file(path)

    def test_payload_bit_flip_fails_crc(self, tmp_path):
        path = tmp_path / "c.eqc"
        write_checkpoint_file(path, SECTIONS)
        blob = bytearray(path.read_bytes())
        blob[-3] ^= 0x01  # inside the last section's payload
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointCorruptError, match="CRC32"):
            read_checkpoint_file(path)

    def test_truncated_file_raises(self, tmp_path):
        path = tmp_path / "c.eqc"
        write_checkpoint_file(path, SECTIONS)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 10])
        with pytest.raises(CheckpointCorruptError):
            read_checkpoint_file(path)

    def test_trailing_garbage_raises(self, tmp_path):
        path = tmp_path / "c.eqc"
        write_checkpoint_file(path, SECTIONS)
        with open(path, "ab") as fh:
            fh.write(b"extra")
        with pytest.raises(CheckpointCorruptError):
            read_checkpoint_file(path)


class TestSchema:
    @staticmethod
    def container(header: dict, payload: bytes = b"") -> bytes:
        return CHECKPOINT_MAGIC + json.dumps(header).encode() + b"\n" + payload

    def test_a_schema_1_container_is_refused_as_another_schema(self, tmp_path):
        # Hand-built, exactly as the schema-1 writer laid it out: intact, and
        # not this code's to interpret.
        payload = b'{"updates_applied":12}'
        directory = [{"name": "meta", "length": len(payload), "crc32": zlib.crc32(payload)}]
        path = tmp_path / "ckpt-000001.eqc"
        path.write_bytes(self.container({"schema": 1, "sections": directory}, payload))
        assert CHECKPOINT_SCHEMA == 2
        with pytest.raises(CheckpointSchemaError, match="unsupported checkpoint schema 1"):
            read_checkpoint_file(path)
        # The same bytes under this schema's number read back.
        path.write_bytes(self.container({"schema": 2, "sections": directory}, payload))
        assert read_checkpoint_file(path) == {"meta": {"updates_applied": 12}}

    @pytest.mark.parametrize("schema", [None, "2", 2.5, [2]])
    def test_an_unreadable_schema_is_damage_not_another_schema(self, tmp_path, schema):
        path = tmp_path / "c.eqc"
        path.write_bytes(self.container({"schema": schema, "sections": []}))
        with pytest.raises(CheckpointCorruptError) as caught:
            read_checkpoint_file(path)
        assert not isinstance(caught.value, CheckpointSchemaError)


class TestAtomicWrite:
    def test_write_leaves_no_temp_files(self, tmp_path):
        atomic_write_bytes(tmp_path / "out.bin", b"payload")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin"]
        assert (tmp_path / "out.bin").read_bytes() == b"payload"

    def test_failed_write_preserves_original(self, tmp_path, monkeypatch):
        target = tmp_path / "out.bin"
        target.write_bytes(b"original")

        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            atomic_write_bytes(target, b"new")
        monkeypatch.undo()
        assert target.read_bytes() == b"original"
        # The temp sibling was cleaned up on failure.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin"]

    def test_atomic_write_json(self, tmp_path):
        path = tmp_path / "manifest.json"
        atomic_write_json(path, {"a": 1, "b": [1.5, None]})
        assert json.loads(path.read_text()) == {"a": 1, "b": [1.5, None]}
        assert path.read_text().endswith("\n")


def test_section_crc_matches_zlib(tmp_path):
    path = tmp_path / "c.eqc"
    write_checkpoint_file(path, {"only": [1, 2, 3]})
    blob = path.read_bytes()
    header_line = blob.split(b"\n", 2)[1]
    header = json.loads(header_line)
    payload = blob[len(CHECKPOINT_MAGIC) + len(header_line) + 1 :]
    section = header["sections"][0]
    assert section["crc32"] == zlib.crc32(payload[: section["length"]])
