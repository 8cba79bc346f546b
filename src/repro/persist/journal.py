"""The write-ahead run journal: CRC-framed, append-only, torn-tail tolerant.

Every committed weight update appends one frame, and so does every epoch
record the history gains (right after the update frame that completed it)::

    <crc32 hex8> <compact JSON>\\n

An *update* frame's object carries ``"update"`` (its index); an *epoch* frame's
is ``snapshot_record`` of the record and carries ``"epoch"``.  The CRC covers
the JSON bytes, so a reader can verify each frame independently.  Because
appends are sequential, a host crash can only damage the *tail* of the file —
a partial last line, a line whose CRC does not match, or a line cut before its
newline.  :func:`read_journal` therefore reads frames until the first that
fails verification and reports how many bytes of tail it discarded; everything
before the tear is trusted.

Recovery uses the journal as the run's committed-progress record: a restored
history, and a completed run's, is rebuilt from the epoch frames (neither a
checkpoint nor ``history.json`` repeats them), the
deterministic training loop re-executes from the last checkpoint, and every
regenerated frame is verified bit-for-bit against the one on disk (see
:class:`~repro.persist.checkpoint.TrainingCheckpointer`), so a corrupted
environment — wrong seed, drifted config, changed physics — is detected on
the first replayed update instead of silently diverging.
"""

from __future__ import annotations

import os
import json
import zlib
from dataclasses import dataclass
from pathlib import Path

from ..telemetry import TELEMETRY as _telemetry
from .format import encode_json

__all__ = ["JournalWriter", "JournalReadResult", "read_journal"]


@dataclass(frozen=True)
class JournalReadResult:
    """Verified journal content plus what the torn-tail scan discarded."""

    #: Every verified frame in file order, update and epoch frames alike.
    records: tuple[dict, ...]
    torn_tail_bytes: int
    path: str
    #: Length of the verified prefix; recovery truncates the file to it, or
    #: the tear would hide every later append from the next reader.
    valid_bytes: int

    @property
    def committed_updates(self) -> int:
        """Highest update index the journal vouches for."""
        return max((int(r["update"]) for r in self.records if "update" in r), default=0)


class JournalWriter:
    """Appends CRC-framed records; one syscall per record, fsyncs on demand.

    Each append is a single ``os.write`` on an ``O_APPEND`` descriptor — the
    record reaches the OS immediately (no userspace buffer), so a *process*
    crash loses nothing.  fsync (surviving a *host* crash) is batched —
    callers invoke :meth:`sync` at checkpoint boundaries — because
    per-record fsync would dominate the checkpoint overhead budget.  The
    torn-tail tolerance of :func:`read_journal` covers whatever an unsynced
    tail loses.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self._fd: int | None = os.open(
            self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644
        )
        self.records_written = 0
        self.fsyncs = 0

    def append(self, record: dict) -> bytes:
        """Append one frame; returns its JSON body."""
        if self._fd is None:
            raise ValueError("journal is closed")
        body = encode_json(record).encode()
        os.write(self._fd, b"%08x " % zlib.crc32(body) + body + b"\n")
        self.records_written += 1
        if _telemetry.enabled:
            _telemetry.registry.counter("persist.journal_records").inc()
        return body

    def sync(self) -> None:
        """fsync the journal (called at checkpoint boundaries and on close)."""
        if self._fd is None:
            return
        os.fsync(self._fd)
        self.fsyncs += 1
        if _telemetry.enabled:
            _telemetry.registry.counter("persist.journal_fsyncs").inc()

    def close(self) -> None:
        if self._fd is not None:
            self.sync()
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def read_journal(path: str | os.PathLike) -> JournalReadResult:
    """Read a journal, stopping at the first torn or corrupted frame.

    A missing file is an empty journal (a run may die before its first
    update commits).  Every returned record passed its CRC; the byte count
    of the discarded tail is reported so recovery can log what was lost.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError:
        return JournalReadResult(records=(), torn_tail_bytes=0, path=str(path), valid_bytes=0)

    records: list[dict] = []
    offset = 0
    while offset < len(raw):
        newline = raw.find(b"\n", offset)
        if newline < 0:
            break  # partial last line: torn tail
        line = raw[offset:newline]
        if len(line) < 10 or line[8:9] != b" ":
            break
        try:
            expected = int(line[:8], 16)
        except ValueError:
            break
        body = line[9:]
        if zlib.crc32(body) != expected:
            break
        try:
            records.append(json.loads(body.decode()))
        except (UnicodeDecodeError, json.JSONDecodeError):
            break
        offset = newline + 1
    return JournalReadResult(
        records=tuple(records),
        torn_tail_bytes=len(raw) - offset,
        path=str(path),
        valid_bytes=offset,
    )
