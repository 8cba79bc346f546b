"""The on-disk checkpoint container: versioned, self-describing, CRC-framed.

A checkpoint file is a sectioned container::

    EQCCKPT\\n                              magic line
    <header JSON>\\n                        schema + section directory
    <section 0 payload bytes>
    <section 1 payload bytes>
    ...

The header is one JSON object ``{"schema": N, "sections": [{"name", "length",
"crc32"}, ...]}``.  A payload is one section's value as compact JSON, a
newline, then its float columns as little-endian float64 bytes: a section
value is JSON data whose leaves may also be ``array('d')`` columns, each
packed in document order and marked ``{"f64": <count>}`` in the JSON.  A float
thus round-trips as its eight bytes (``-0.0``, subnormals, infinities, NaN
payloads) and costs a copy, not a ``repr``; ints (128-bit PCG64 words among
them) and strings stay JSON.  Readers verify the magic, the schema number,
every section length and CRC, and that the columns use up exactly the packed
floats before returning anything — a truncated or bit-flipped file raises
:class:`CheckpointCorruptError` instead of yielding silently wrong state,
which is what lets the recovery path fall back one checkpoint generation.

Writes are atomic: the container is assembled in full, written to a
temporary sibling, fsynced, and moved over the destination with
``os.replace``.  A crash mid-write can therefore never produce a torn
checkpoint — only the previous generation or the complete new one.
"""

from __future__ import annotations

import json
import os
import sys
import time
import zlib
from array import array
from functools import partial
from pathlib import Path

__all__ = [
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_SCHEMA",
    "CheckpointCorruptError",
    "CheckpointSchemaError",
    "atomic_write_bytes",
    "atomic_write_json",
    "encode_json",
    "write_checkpoint_file",
    "read_checkpoint_file",
]

#: First line of every checkpoint container.
CHECKPOINT_MAGIC = b"EQCCKPT\n"

#: Current checkpoint schema.  Bump on any incompatible layout change; the
#: reader rejects unknown schemas loudly instead of misinterpreting bytes.
#: Schema 3: flat rows with packed float64 columns (schema 2 nested objects
#: and wrote floats as JSON text; its stores are refused, as schema 1's are).
CHECKPOINT_SCHEMA = 3

_COLUMN = "f64"  # marks a float column's place in a section's JSON
_LITTLE_ENDIAN = sys.byteorder == "little"


#: ``json.dumps(value, separators=(",", ":"))`` without building an encoder per
#: call: section payloads, the container header, journal frames.
encode_json = json.JSONEncoder(separators=(",", ":")).encode


class CheckpointCorruptError(RuntimeError):
    """The checkpoint file is truncated, bit-flipped, or schema-incompatible."""


class CheckpointSchemaError(CheckpointCorruptError):
    """An intact container of another schema: the store was written by other
    code, so recovery refuses it instead of falling back a generation."""


def atomic_write_bytes(
    path: str | os.PathLike, payload: bytes, fsync: bool = True
) -> None:
    """Write ``payload`` to ``path`` via temp file + ``os.replace``.

    Readers never observe a partial file: they see either the old content or
    the complete new content.  With ``fsync=True`` the content is also
    durable against a host crash before the rename publishes it.  Callers
    whose readers verify content integrity themselves (the CRC-framed
    checkpoint container, whose recovery falls back a generation on any
    verification failure) may pass ``fsync=False`` and skip the ~1ms sync:
    a power cut can then leave the newest file unreadable, never a torn
    half-state, and never losing anything the fsynced journal holds.
    """
    directory, name = os.path.split(os.fspath(path))
    tmp_name = os.path.join(directory, f".{name}.{os.getpid()}-{time.monotonic_ns():x}.tmp")
    # O_EXCL: fail rather than write through a file someone else left there.
    fd = os.open(tmp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
    try:
        try:
            remaining = memoryview(payload)
            while remaining:
                remaining = remaining[os.write(fd, remaining):]
            if fsync:
                os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def atomic_write_json(path: str | os.PathLike, value: object, indent: int = 2) -> None:
    """Atomically persist one JSON document (pretty, trailing newline)."""
    atomic_write_bytes(path, (json.dumps(value, indent=indent) + "\n").encode())


def _little_endian(floats: array) -> array:
    if not _LITTLE_ENDIAN:
        floats = array("d", floats)
        floats.byteswap()
    return floats


def _column_bytes(columns: list, value: object) -> dict:
    """``default`` of the section encoder: a float column, set aside and marked."""
    if not (isinstance(value, array) and value.typecode == "d"):
        raise TypeError(f"{type(value).__name__} is neither JSON data nor a float64 column")
    columns.append(_little_endian(value).tobytes())
    return {_COLUMN: len(value)}


def write_checkpoint_file(
    path: str | os.PathLike, sections: dict[str, object], fsync: bool = False
) -> int:
    """Assemble and atomically write one checkpoint container.

    ``sections`` maps section names to JSON data with optional ``array('d')``
    float columns.  Returns the container size in bytes (telemetry records it
    as the checkpoint payload).

    Checkpoints default to ``fsync=False``: the run journal — fsynced before
    every checkpoint commits — is the durability anchor, and a generation
    that a power cut leaves unreadable is exactly what CRC verification and
    retention fallback recover from.  Skipping the sync keeps per-epoch
    checkpointing cheap (the ``qaoa10_chaos_durable`` workload of
    ``benchmarks/e2e`` measures it).
    """
    columns: list[bytes] = []
    encode = json.JSONEncoder(separators=(",", ":"), default=partial(_column_bytes, columns)).encode
    payloads = []
    for name, value in sections.items():
        payloads.append((name, b"".join((encode(value).encode(), b"\n", *columns))))
        columns.clear()
    header = {
        "schema": CHECKPOINT_SCHEMA,
        "sections": [
            {"name": name, "length": len(body), "crc32": zlib.crc32(body)}
            for name, body in payloads
        ],
    }
    blob = b"".join(
        (CHECKPOINT_MAGIC, encode_json(header).encode(), b"\n", *(b for _, b in payloads))
    )
    atomic_write_bytes(path, blob, fsync=fsync)
    return len(blob)


def _decode_section(payload: bytes) -> object:
    """A section's value, float columns back in place (``ValueError`` if it is
    unreadable or its columns do not use up exactly the packed floats)."""
    text, newline, packed = payload.partition(b"\n")
    if not newline or len(packed) % 8:
        raise ValueError("no whole float64 columns after the JSON")
    floats, taken = _little_endian(array("d", packed)), 0

    def column(value: dict) -> object:
        nonlocal taken
        count = value.get(_COLUMN) if len(value) == 1 else None
        if count is None:
            return value
        if type(count) is not int or not 0 <= count <= len(floats) - taken:
            raise ValueError(f"a float column of {count!r} overruns the packed floats")
        taken += count
        return floats[taken - count : taken]

    value = json.loads(text, object_hook=column)
    if taken != len(floats):
        raise ValueError(f"{len(floats) - taken} packed floats belong to no column")
    return value


def read_checkpoint_file(path: str | os.PathLike) -> dict[str, object]:
    """Read and fully verify one checkpoint container.

    Raises :class:`CheckpointCorruptError` on any integrity failure (missing
    file is reported as corruption too, so generation fallback handles a
    deleted-but-indexed checkpoint uniformly).
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointCorruptError(f"cannot read checkpoint {path}: {exc}") from exc
    if not raw.startswith(CHECKPOINT_MAGIC):
        raise CheckpointCorruptError(f"{path}: bad magic (not a checkpoint container)")
    body = raw[len(CHECKPOINT_MAGIC):]
    newline = body.find(b"\n")
    if newline < 0:
        raise CheckpointCorruptError(f"{path}: truncated before the header")
    try:
        header = json.loads(body[:newline].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointCorruptError(f"{path}: unreadable header: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointCorruptError(
            f"{path}: header is a JSON {type(header).__name__}, not an object"
        )
    schema = header.get("schema")
    if schema != CHECKPOINT_SCHEMA:
        # A readable number names other code's layout; anything else is damage.
        error = CheckpointSchemaError if isinstance(schema, int) else CheckpointCorruptError
        raise error(
            f"{path}: unsupported checkpoint schema {schema!r} "
            f"(this reader supports {CHECKPOINT_SCHEMA})"
        )
    directory = header.get("sections")
    if not isinstance(directory, list):
        raise CheckpointCorruptError(f"{path}: header carries no section directory")

    sections: dict[str, object] = {}
    offset = newline + 1
    for entry in directory:
        try:
            name, length, crc = entry["name"], int(entry["length"]), int(entry["crc32"])
        except (KeyError, TypeError, ValueError) as exc:  # the header has no CRC
            raise CheckpointCorruptError(f"{path}: malformed section directory") from exc
        payload = body[offset : offset + length]
        if len(payload) != length:
            raise CheckpointCorruptError(
                f"{path}: section {name!r} truncated "
                f"({len(payload)} of {length} bytes)"
            )
        if zlib.crc32(payload) != crc:
            raise CheckpointCorruptError(f"{path}: section {name!r} failed its CRC32")
        try:
            sections[name] = _decode_section(payload)
        except ValueError as exc:  # JSON and UTF-8 errors among them
            raise CheckpointCorruptError(f"{path}: section {name!r} is unreadable: {exc}") from exc
        offset += length
    if offset != len(body):
        raise CheckpointCorruptError(
            f"{path}: {len(body) - offset} trailing bytes after the last section"
        )
    return sections
