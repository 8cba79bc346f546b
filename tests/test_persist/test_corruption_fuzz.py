"""Any single damage to a crashed store is recovered from or refused, typed.

ROADMAP invariant: flip any one bit, or truncate at any offset, of the newest
checkpoint generation or of the journal of a run that crashed mid-epoch —
``resume`` either finishes bit-equal to the uninterrupted run (generation
fallback, torn-tail truncation) or raises ``CheckpointCorruptError`` /
``JournalDivergenceError``.  It never returns a different history.  The
journal's epoch frames are the only copy of the history's records, so damage
is also aimed at them alone: never a silent gap.
"""

import shutil

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import EQCEnsemble, resume
from repro.persist.checkpoint import JournalDivergenceError, TrainingCheckpointer
from repro.persist.format import CheckpointCorruptError, CheckpointSchemaError
from repro.persist.journal import read_journal
from repro.persist.store import RunDirectory, RunStore
from test_resume import (  # noqa: F401  (fixtures)
    NUM_EPOCHS,
    _Crash,
    history_key,
    is_epoch_frame,
    journal_ledger,
    make_config,
    objective,
    plain_history,
    theta0,
)


@pytest.fixture(scope="module")
def crashed(objective, theta0, tmp_path_factory):
    """A run killed five updates past its third checkpoint."""
    root = tmp_path_factory.mktemp("crashed-store")
    updates = 3 * objective.num_parameters + 5
    original = TrainingCheckpointer.record_update

    def crashing(self, master, *args):
        original(self, master, *args)
        if master.telemetry.updates_applied >= updates:
            raise _Crash()

    TrainingCheckpointer.record_update = crashing
    try:
        with pytest.raises(_Crash):
            EQCEnsemble(objective, make_config(root)).train(theta0, num_epochs=NUM_EPOCHS)
    finally:
        TrainingCheckpointer.record_update = original
    run = RunStore(root).load_run("run-000001")
    assert len(run.checkpoint_paths()) == 3
    assert read_journal(run.journal_path).committed_updates == updates
    return run


DAMAGE = st.tuples(
    st.sampled_from(["checkpoint", "journal", "epoch frames"]),
    st.sampled_from(["flip", "truncate"]),
    st.integers(0, 2**20),  # reduced modulo the size of what is aimed at
    st.integers(0, 7),
)


def epoch_frame_offsets(blob: bytes) -> list[int]:
    """Every byte offset of the journal that lies inside an epoch frame."""
    offsets, start = [], 0
    for line in blob.splitlines(keepends=True):
        if is_epoch_frame(line):
            offsets.extend(range(start, start + len(line)))
        start += len(line)
    return offsets


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(DAMAGE)
def test_one_damage_never_yields_a_different_history(
    crashed, objective, plain_history, tmp_path_factory, damage
):
    target, kind, position, bit = damage
    run = RunDirectory(tmp_path_factory.mktemp("damaged") / "run")
    shutil.copytree(crashed.path, run.path)
    path = run.checkpoint_paths()[-1] if target == "checkpoint" else run.journal_path
    blob = bytearray(path.read_bytes())
    aimed_at = epoch_frame_offsets(blob) if target == "epoch frames" else range(len(blob))
    offset = aimed_at[position % len(aimed_at)]
    if kind == "flip":
        blob[offset] ^= 1 << bit
    else:
        del blob[offset:]
    path.write_bytes(bytes(blob))
    damaged = read_journal(run.journal_path)

    try:
        try:
            history = resume(run, objective)
        except (CheckpointCorruptError, JournalDivergenceError):
            return
        ledger = journal_ledger(run.journal_path)
    finally:
        shutil.rmtree(run.path.parent, ignore_errors=True)
    assert history_key(history) == history_key(plain_history)
    # What absorbed the damage is on record.
    if target == "checkpoint":
        assert history.metadata["persist"]["fallbacks"] == 1
    elif kind == "flip":
        # (the case of a CRC's hex digit is the one bit no reader sees)
        assert damaged.torn_tail_bytes > 0 or (
            damaged.records == read_journal(crashed.journal_path).records
        )
    # Whatever was cut off, the ledger is left whole: no update and no epoch
    # record is missing between the verified prefix and what the resumed run
    # appended.
    assert ledger == (
        list(range(1, history.total_updates + 1)),
        list(range(1, NUM_EPOCHS + 1)),
    )


def test_a_journal_cut_short_of_its_checkpoint_is_refused(crashed, objective, tmp_path):
    # A flip in an early frame: everything after it is unreachable, and the
    # writer would otherwise append the next update straight after the gap.
    run = RunDirectory(tmp_path / "run")
    shutil.copytree(crashed.path, run.path)
    blob = bytearray(run.journal_path.read_bytes())
    blob[blob.index(b"\n") + 12] ^= 1  # inside the second record
    run.journal_path.write_bytes(bytes(blob))
    with pytest.raises(JournalDivergenceError, match="verified up to update 1,"):
        resume(run, objective)
    assert run.journal_path.read_bytes() == bytes(blob)  # refused, not truncated


def test_a_journal_missing_an_epoch_frame_of_its_checkpoint_is_refused(
    crashed, objective, tmp_path
):
    # Every update the newest checkpoint counts is there, but the frame of its
    # last epoch record is damaged: the history could not be rebuilt whole.
    run = RunDirectory(tmp_path / "run")
    shutil.copytree(crashed.path, run.path)
    blob = bytearray(run.journal_path.read_bytes())
    blob[epoch_frame_offsets(blob)[-1] - 3] ^= 1
    run.journal_path.write_bytes(bytes(blob))
    assert read_journal(run.journal_path).committed_updates == 3 * objective.num_parameters
    with pytest.raises(JournalDivergenceError, match=r"epoch records \(2, "):
        resume(run, objective)
    assert run.journal_path.read_bytes() == bytes(blob)


def test_a_swapped_epoch_frame_fails_the_digest(crashed, objective, tmp_path):
    # A frame that passes its own CRC but is not the one the checkpoint was
    # written over (here: epoch 1's record in epoch 2's place).
    run = RunDirectory(tmp_path / "run")
    shutil.copytree(crashed.path, run.path)
    lines = run.journal_path.read_bytes().splitlines(keepends=True)
    epochs = [i for i, line in enumerate(lines) if is_epoch_frame(line)]
    lines[epochs[1]] = lines[epochs[0]]
    run.journal_path.write_bytes(b"".join(lines))
    with pytest.raises(JournalDivergenceError, match="epoch records"):
        resume(run, objective)


def test_a_killed_writers_temp_sibling_is_ignored_and_removed(
    crashed, objective, plain_history, tmp_path
):
    run = RunDirectory(tmp_path / "run")
    shutil.copytree(crashed.path, run.path)
    generations = run.checkpoint_paths()
    stale = run.checkpoints_dir / ".ckpt-000004.eqc.4242-0.tmp"
    stale.write_bytes(generations[-1].read_bytes()[:100])
    assert run.checkpoint_paths() == generations
    history = resume(run, objective)
    assert history_key(history) == history_key(plain_history)
    assert not stale.exists()
    assert history.metadata["persist"]["fallbacks"] == 0


def test_every_header_bit_flip_falls_back_or_is_refused(crashed, tmp_path):
    # The header carries the CRCs and so has none of its own: every flip in
    # it must still read as corruption (a bad count, a renamed key, a section
    # that is no longer there), never as a KeyError or a restorable generation.
    # The one exception is typed too: a schema digit flipped into another
    # number reads as another code's store, which recovery refuses.
    run = RunDirectory(tmp_path / "run")
    shutil.copytree(crashed.path, run.path)
    newest = run.checkpoint_paths()[-1]
    good = newest.read_bytes()
    header_end = good.index(b"\n", good.index(b"\n") + 1) + 1
    refused = []
    for offset in range(header_end):
        for bit in (0, 3, 5):  # a neighbouring character, another, the other case
            blob = bytearray(good)
            blob[offset] ^= 1 << bit
            newest.write_bytes(bytes(blob))
            try:
                checkpointer = TrainingCheckpointer(run, 1, provider=None, resume=True)
            except CheckpointSchemaError:
                refused.append(chr(blob[offset]))
                continue
            checkpointer.close()
            assert checkpointer.fallbacks == [str(newest)], (offset, bit)
    assert refused == ["2"]  # the schema's "3" with bit 0 flipped
