"""Tests for the CRC-framed write-ahead journal and torn-tail recovery."""

import zlib

from repro.persist.journal import JournalWriter, read_journal


def write_records(path, records):
    with JournalWriter(path) as journal:
        for record in records:
            journal.append(record)


RECORDS = [
    {"update": 1, "parameter_index": 0, "gradient": 0.25},
    {"update": 2, "parameter_index": 1, "gradient": -0.5},
    {"update": 3, "parameter_index": 2, "gradient": 0.125},
]


class TestRoundTrip:
    def test_append_read_round_trip(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        write_records(path, RECORDS)
        result = read_journal(path)
        assert list(result.records) == RECORDS
        assert result.torn_tail_bytes == 0
        assert result.committed_updates == 3

    def test_epoch_frames_interleave_and_do_not_count_as_updates(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        epoch = {"epoch": 1, "loss": -0.5, "parameters": [0.25, -0.5], "noisy_loss": None}
        write_records(path, RECORDS + [epoch])
        result = read_journal(path)
        assert list(result.records) == RECORDS + [epoch]
        assert result.committed_updates == 3
        write_records(tmp_path / "epochs-only.jsonl", [epoch])
        assert read_journal(tmp_path / "epochs-only.jsonl").committed_updates == 0

    def test_missing_file_is_empty_journal(self, tmp_path):
        result = read_journal(tmp_path / "absent.jsonl")
        assert result.records == ()
        assert result.torn_tail_bytes == 0
        assert result.committed_updates == 0

    def test_append_after_reopen_continues(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        write_records(path, RECORDS[:2])
        write_records(path, RECORDS[2:])  # reopen appends, never truncates
        assert list(read_journal(path).records) == RECORDS

    def test_frame_layout(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        write_records(path, RECORDS[:1])
        line = path.read_bytes()
        crc_hex, body = line[:8], line[9:-1]
        assert line[8:9] == b" " and line.endswith(b"\n")
        assert int(crc_hex, 16) == zlib.crc32(body)


class TestTornTail:
    def test_partial_last_line_discarded(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        write_records(path, RECORDS)
        with open(path, "ab") as fh:
            fh.write(b'deadbeef {"update": 4, "gra')  # crash mid-append
        result = read_journal(path)
        assert list(result.records) == RECORDS
        assert result.torn_tail_bytes == 27
        assert result.committed_updates == 3

    def test_crc_mismatch_stops_reading(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        write_records(path, RECORDS)
        blob = bytearray(path.read_bytes())
        # Flip one payload bit in the second record.
        second_start = blob.index(b"\n") + 1
        blob[second_start + 12] ^= 0x01
        path.write_bytes(bytes(blob))
        result = read_journal(path)
        # Only the first record survives; the damaged frame and everything
        # after it count as torn tail.
        assert list(result.records) == RECORDS[:1]
        assert result.torn_tail_bytes > 0
        assert result.committed_updates == 1

    def test_garbage_only_file(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_bytes(b"not a journal at all\n")
        result = read_journal(path)
        assert result.records == ()
        assert result.torn_tail_bytes == 21


class TestWriterBookkeeping:
    def test_counts_records_and_fsyncs(self, tmp_path):
        journal = JournalWriter(tmp_path / "j.jsonl")
        for record in RECORDS:
            journal.append(record)
        assert journal.records_written == 3
        journal.sync()
        assert journal.fsyncs == 1
        journal.close()
        assert journal.fsyncs == 2  # close syncs once more
        journal.close()  # idempotent
        assert journal.fsyncs == 2
