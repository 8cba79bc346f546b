"""Tests for the checkpoint container format and atomic file writes."""

import json
import math
import os
import struct
import zlib
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        # A float left in a section's JSON (the training sections hold none:
        # their floats are columns) round-trips through ``repr`` exactly.
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


def container(header: dict, payload: bytes = b"") -> bytes:
    return CHECKPOINT_MAGIC + json.dumps(header).encode() + b"\n" + payload


def one_section(payload: bytes, schema: int = CHECKPOINT_SCHEMA) -> bytes:
    """A container of one CRC-correct ``meta`` section, built by hand."""
    directory = [{"name": "meta", "length": len(payload), "crc32": zlib.crc32(payload)}]
    return container({"schema": schema, "sections": directory}, payload)


class TestSchema:
    @pytest.mark.parametrize("schema", [1, 2])
    def test_an_older_schema_container_is_refused_as_another_schema(self, tmp_path, schema):
        # Hand-built, laid out as the schema-1 and schema-2 writers laid it
        # out (a section was JSON alone): intact, and not this code's to
        # interpret.
        path = tmp_path / "ckpt-000001.eqc"
        path.write_bytes(one_section(b'{"updates_applied":12}', schema))
        assert CHECKPOINT_SCHEMA == 3
        with pytest.raises(CheckpointSchemaError, match=f"unsupported checkpoint schema {schema}"):
            read_checkpoint_file(path)
        # The same value in this schema's layout reads back.
        path.write_bytes(one_section(b'{"updates_applied":12}\n'))
        assert read_checkpoint_file(path) == {"meta": {"updates_applied": 12}}

    @pytest.mark.parametrize("schema", [None, "3", 3.5, [3]])
    def test_an_unreadable_schema_is_damage_not_another_schema(self, tmp_path, schema):
        path = tmp_path / "c.eqc"
        path.write_bytes(container({"schema": schema, "sections": []}))
        with pytest.raises(CheckpointCorruptError) as caught:
            read_checkpoint_file(path)
        assert not isinstance(caught.value, CheckpointSchemaError)

    @pytest.mark.parametrize("header", [b"[1]", b"123", b'"x"'])
    def test_a_header_that_is_no_json_object_is_damage(self, tmp_path, header):
        path = tmp_path / "c.eqc"
        path.write_bytes(CHECKPOINT_MAGIC + header + b"\n")
        with pytest.raises(CheckpointCorruptError, match="not an object") as caught:
            read_checkpoint_file(path)
        assert not isinstance(caught.value, CheckpointSchemaError)
        assert str(path) in str(caught.value)


#: Floats whose bits a decimal detour could lose: signed zeros, subnormals,
#: infinities, and NaNs carrying a payload and either sign.
SPECIAL_FLOATS = [
    -0.0,
    0.0,
    5e-324,
    -2.2250738585072014e-308 / 3,
    math.inf,
    -math.inf,
    struct.unpack("<d", struct.pack("<Q", 0x7FF8_0000_DEAD_BEEF))[0],
    struct.unpack("<d", struct.pack("<Q", 0xFFF4_0000_0000_0001))[0],
]


def float_bits(values) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


class TestFloatColumns:
    @settings(max_examples=60, deadline=None)
    @given(
        columns=st.lists(
            st.lists(
                st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=True)),
                max_size=12,
            ),
            max_size=4,
        )
    )
    def test_columns_round_trip_bit_exact(self, tmp_path_factory, columns):
        path = tmp_path_factory.mktemp("columns") / "c.eqc"
        sections = {
            "rows": {"ints": [1, 2**127 + 5], "columns": [array("d", c) for c in columns]},
            "bare": array("d", [value for c in columns for value in c]),
        }
        size = write_checkpoint_file(path, sections)
        assert size == path.stat().st_size
        read = read_checkpoint_file(path)
        assert read["rows"]["ints"] == [1, 2**127 + 5]
        # Bits, not ``==``: NaN != NaN and -0.0 == 0.0 would hide a lost bit.
        assert [float_bits(c) for c in read["rows"]["columns"]] == [float_bits(c) for c in columns]
        assert float_bits(read["bare"]) == float_bits(sections["bare"])

    def test_a_column_is_eight_little_endian_bytes_a_float_after_the_json(self, tmp_path):
        path = tmp_path / "c.eqc"
        write_checkpoint_file(path, {"meta": {"clock": array("d", [1.5, -0.0]), "n": 3}})
        payload = path.read_bytes().split(b"\n", 2)[2]
        assert payload == b'{"clock":{"f64":2},"n":3}\n' + struct.pack("<2d", 1.5, -0.0)

    def test_anything_else_is_not_encoded(self, tmp_path):
        with pytest.raises(TypeError, match="float64 column"):
            write_checkpoint_file(tmp_path / "c.eqc", {"meta": array("i", [1])})

    @pytest.mark.parametrize(
        "payload",
        [
            b'{"f64":3}\n' + struct.pack("<2d", 1.0, 2.0),  # a column overruns the floats
            b'{"f64":1}\n' + struct.pack("<2d", 1.0, 2.0),  # a float belongs to no column
            b'{"f64":-1}\n',  # a negative count
            b'{"f64":"2"}\n' + struct.pack("<2d", 1.0, 2.0),  # a count that is no int
            b'{"f64":1}\n' + struct.pack("<d", 1.0)[:5],  # not whole float64s
            b'{"updates_applied":12}',  # no newline after the JSON
        ],
    )
    def test_a_crc_correct_but_inconsistent_section_is_corruption(self, tmp_path, payload):
        path = tmp_path / "c.eqc"
        path.write_bytes(one_section(payload))
        with pytest.raises(CheckpointCorruptError, match="unreadable"):
            read_checkpoint_file(path)


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
