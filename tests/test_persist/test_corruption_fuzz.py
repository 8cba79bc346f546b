"""Any single damage to a crashed store is recovered from or refused, typed.

ROADMAP invariant: flip any one bit, or truncate at any offset, of the newest
checkpoint generation or of the journal of a run that crashed mid-epoch —
``resume`` either finishes bit-equal to the uninterrupted run (generation
fallback, torn-tail truncation) or raises ``CheckpointCorruptError`` /
``JournalDivergenceError``.  It never returns a different history.
"""

import shutil

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import EQCEnsemble, resume
from repro.persist.checkpoint import JournalDivergenceError, TrainingCheckpointer
from repro.persist.format import CheckpointCorruptError
from repro.persist.journal import read_journal
from repro.persist.store import RunDirectory, RunStore
from test_resume import (  # noqa: F401  (fixtures)
    NUM_EPOCHS,
    _Crash,
    history_key,
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

    def crashing(self, *args):
        original(self, *args)
        if self.journal.records_written >= updates:
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
    st.sampled_from(["checkpoint", "journal"]),
    st.sampled_from(["flip", "truncate"]),
    st.integers(0, 2**20),  # reduced modulo the file's size
    st.integers(0, 7),
)


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
    offset = position % len(blob)
    if kind == "flip":
        blob[offset] ^= 1 << bit
    else:
        del blob[offset:]
    path.write_bytes(bytes(blob))
    torn = read_journal(run.journal_path).torn_tail_bytes

    try:
        try:
            history = resume(run, objective)
        except (CheckpointCorruptError, JournalDivergenceError):
            return
        journal = read_journal(run.journal_path)
    finally:
        shutil.rmtree(run.path.parent, ignore_errors=True)
    assert history_key(history) == history_key(plain_history)
    # What absorbed the damage is on record.
    if target == "checkpoint":
        assert history.metadata["persist"]["fallbacks"] == 1
    elif kind == "flip":
        assert torn > 0
    # Whatever was cut off, the ledger is left whole: no update is missing
    # between the verified prefix and what the resumed run appended.
    assert journal.torn_tail_bytes == 0
    assert [r["update"] for r in journal.records] == list(range(1, history.total_updates + 1))


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


def test_every_header_bit_flip_falls_back(crashed, tmp_path):
    # The header carries the CRCs and so has none of its own: every flip in
    # it must still read as corruption (a bad count, a renamed key, a section
    # that is no longer there), never as a KeyError or a restorable generation.
    run = RunDirectory(tmp_path / "run")
    shutil.copytree(crashed.path, run.path)
    newest = run.checkpoint_paths()[-1]
    good = newest.read_bytes()
    header_end = good.index(b"\n", good.index(b"\n") + 1) + 1
    for offset in range(header_end):
        for bit in (0, 3, 5):  # a neighbouring character, another, the other case
            blob = bytearray(good)
            blob[offset] ^= 1 << bit
            newest.write_bytes(bytes(blob))
            checkpointer = TrainingCheckpointer(run, 1, provider=None, resume=True)
            checkpointer.close()
            assert checkpointer.fallbacks == [str(newest)], (offset, bit)
