"""End-to-end recovery goldens: crash → resume must be bit-exact.

These tests pin the whole durability contract: a run interrupted at any
point resumes from its newest valid checkpoint, replays the journal suffix
with bit-for-bit verification, and finishes with a history identical to the
run that was never interrupted — with and without an active fault plan.
"""

import json
import zlib

import pytest

from repro import (
    EQCConfig,
    EQCEnsemble,
    EnergyObjective,
    FaultPlan,
    OutageWindow,
    RetryPolicy,
    resume,
)
from repro.persist.checkpoint import JournalDivergenceError, TrainingCheckpointer
from repro.persist.format import CHECKPOINT_MAGIC, CheckpointSchemaError
from repro.persist.journal import read_journal
from repro.persist.store import RunDirectory, RunStore
from repro.telemetry import TELEMETRY, telemetry_session

NUM_EPOCHS = 5
SHOTS = 64
SEED = 1
DEVICES = ("x2", "Belem")

FAULT_PLAN = FaultPlan(
    transient_failure_rate=0.08,
    result_timeout_rate=0.05,
    result_delay_seconds=120.0,
    outages=(OutageWindow(device="Belem", start=2.0, duration=3.0),),
    seed=3,
)


def history_key(history):
    """Everything the resume-exactness golden compares, bitwise.

    ``noisy_loss`` is NaN when no noisy evaluation ran; NaN never compares
    equal to itself, so it is normalized to ``None`` for the comparison.
    """
    import math

    def noisy(value):
        if value is None or (isinstance(value, float) and math.isnan(value)):
            return None
        return value

    return [
        (
            record.epoch,
            record.loss,
            noisy(record.noisy_loss),
            tuple(record.parameters),
            record.sim_time_hours,
            tuple(sorted(record.weights.items())),
        )
        for record in history.records
    ]


def make_config(tmp_path, faults=False, **overrides):
    kwargs = dict(
        device_names=DEVICES if not faults else DEVICES + ("Bogota",),
        shots=SHOTS,
        seed=SEED,
        checkpoint_every=1,
        run_store=str(tmp_path),
    )
    if faults:
        kwargs.update(fault_plan=FAULT_PLAN, retry_policy=RetryPolicy(max_attempts=4))
    kwargs.update(overrides)
    return EQCConfig(**kwargs)


class _Crash(Exception):
    pass


def is_epoch_frame(line: bytes) -> bool:
    """One raw journal line (``<crc32 hex8> <json>``): is it an epoch frame?"""
    return line[9:].startswith(b'{"epoch"')


def journal_ledger(path):
    """(update indices, epoch numbers) of a journal that must read back whole."""
    journal = read_journal(path)
    assert journal.torn_tail_bytes == 0
    return (
        [r["update"] for r in journal.records if "update" in r],
        [r["epoch"] for r in journal.records if "epoch" in r],
    )


def train_until_crash(objective, config, theta0, crash_after_checkpoints, num_epochs=NUM_EPOCHS):
    """Run a checkpointed training and kill it after N checkpoints."""
    original = TrainingCheckpointer.after_iteration

    def crashing(self, *args, **kwargs):
        original(self, *args, **kwargs)
        if self.checkpoints_written >= crash_after_checkpoints:
            raise _Crash()

    TrainingCheckpointer.after_iteration = crashing
    try:
        with pytest.raises(_Crash):
            EQCEnsemble(objective, config).train(theta0, num_epochs=num_epochs)
    finally:
        TrainingCheckpointer.after_iteration = original


@pytest.fixture(scope="module")
def theta0(vqe_problem):
    return vqe_problem.random_initial_parameters(seed=7)


@pytest.fixture(scope="module")
def objective(vqe_problem):
    return EnergyObjective(vqe_problem.estimator)


@pytest.fixture(scope="module")
def plain_history(objective, theta0):
    """The never-checkpointed, never-interrupted reference run."""
    config = EQCConfig(device_names=DEVICES, shots=SHOTS, seed=SEED)
    return EQCEnsemble(objective, config).train(theta0, num_epochs=NUM_EPOCHS)


@pytest.fixture(scope="module")
def faulted_history(objective, theta0, tmp_path_factory):
    """Uninterrupted checkpointed run under the chaos plan."""
    store = tmp_path_factory.mktemp("faulted-baseline")
    config = make_config(store, faults=True)
    return EQCEnsemble(objective, config).train(theta0, num_epochs=NUM_EPOCHS)


class TestUninterrupted:
    def test_checkpointing_does_not_perturb_training(
        self, objective, theta0, plain_history, tmp_path
    ):
        config = make_config(tmp_path)
        history = EQCEnsemble(objective, config).train(theta0, num_epochs=NUM_EPOCHS)
        assert history_key(history) == history_key(plain_history)

    def test_run_store_artifacts(self, objective, theta0, tmp_path):
        config = make_config(tmp_path)
        history = EQCEnsemble(objective, config).train(theta0, num_epochs=NUM_EPOCHS)
        run = RunStore(tmp_path).load_run("run-000001")
        assert run.status() == "complete"
        assert run.manifest()["summary"]["total_updates"] == history.total_updates
        journal = read_journal(run.journal_path)
        assert journal.committed_updates == history.total_updates
        assert journal.torn_tail_bytes == 0
        # One frame per update and one per epoch record, the epoch's right
        # after the update that completed it.
        kinds = ["update" if "update" in r else "epoch" for r in journal.records]
        cycle = objective.num_parameters
        assert kinds == (["update"] * cycle + ["epoch"]) * NUM_EPOCHS
        # Stored history round-trips exactly.
        assert history_key(run.history()) == history_key(history)
        assert run.history().metadata == history.metadata

    def test_the_journal_sync_is_timed_apart_from_each_checkpoint(
        self, objective, theta0, tmp_path
    ):
        try:
            with telemetry_session():
                EQCEnsemble(objective, make_config(tmp_path)).train(
                    theta0, num_epochs=NUM_EPOCHS
                )
                histograms = dict(TELEMETRY.registry.histograms())
                counters = dict(TELEMETRY.registry.counters())
        finally:
            TELEMETRY.reset()
        assert counters["persist.checkpoints"] == NUM_EPOCHS
        for name in ("persist.checkpoint_seconds", "persist.journal_sync_seconds"):
            assert histograms[name].count == NUM_EPOCHS, name
            assert histograms[name].min_value >= 0.0, name

    def test_a_journal_cut_after_completion_is_refused_not_shortened(
        self, objective, theta0, tmp_path
    ):
        # history.json is the head, the record count and the digest: the
        # records are the journal's.  A journal that lost epoch frames after
        # the run completed must not come back as a shorter history.
        config = make_config(tmp_path)
        history = EQCEnsemble(objective, config).train(theta0, num_epochs=NUM_EPOCHS)
        run = RunStore(tmp_path).load_run("run-000001")
        head = json.loads(run.history_path.read_text())
        assert "records" not in head and head["record_count"] == NUM_EPOCHS
        assert history_key(run.history()) == history_key(history)
        whole = run.journal_path.read_bytes()
        lines = whole.splitlines(keepends=True)
        last_epoch = max(i for i, line in enumerate(lines) if is_epoch_frame(line))
        # The last epoch frame dropped whole, then torn mid-frame.
        for cut in (b"".join(lines[:last_epoch]), whole[:-3]):
            run.journal_path.write_bytes(cut)
            with pytest.raises(JournalDivergenceError, match="epoch records"):
                run.history()
            with pytest.raises(JournalDivergenceError):
                resume(run, objective)  # a completed run's resume is a history read

    def test_a_partial_last_epoch_is_journaled_with_the_rest(self, objective, theta0, tmp_path):
        # A truncated update budget's tail becomes a partial epoch record after
        # the master's loop, past the last journaling hook: finalize journals
        # it, or history() would refuse the completed run.
        from repro.core.master import EQCMasterNode
        from repro.core.weighting import WeightingConfig
        from repro.vqa.optimizer import AsgdRule
        from repro.vqa.tasks import vqe_task_cycle

        config = make_config(tmp_path)
        ensemble = EQCEnsemble(objective, config)
        run = RunStore(tmp_path).create_run(config, theta0, num_epochs=NUM_EPOCHS)
        checkpointer = TrainingCheckpointer(run, 1, provider=ensemble.provider)
        master = EQCMasterNode(
            objective,
            ensemble.clients,
            vqe_task_cycle(objective.num_parameters),
            AsgdRule(learning_rate=config.learning_rate),
            WeightingConfig(),
            theta0,
        )
        updates = 2 * objective.num_parameters + 1
        history = master.train(target_updates=updates, checkpointer=checkpointer)
        checkpointer.finalize(history)
        assert history.metadata["final_epoch_partial_updates"] == 1
        assert [r.epoch for r in run.history().records] == [1, 2, 3]
        assert history_key(run.history()) == history_key(history)

    def test_retention_bounds_generations(self, objective, theta0, tmp_path):
        config = make_config(tmp_path, checkpoint_retention=2)
        EQCEnsemble(objective, config).train(theta0, num_epochs=NUM_EPOCHS)
        run = RunStore(tmp_path).load_run("run-000001")
        names = [p.name for p in run.checkpoint_paths()]
        assert names == ["ckpt-000004.eqc", "ckpt-000005.eqc"]


class TestCrashResume:
    @pytest.mark.parametrize("crash_after", [1, 3])
    def test_resume_is_bit_exact(
        self, objective, theta0, plain_history, tmp_path, crash_after
    ):
        config = make_config(tmp_path)
        train_until_crash(objective, config, theta0, crash_after)
        run = RunStore(tmp_path).load_run("run-000001")
        assert run.status() == "running"
        assert len(run.checkpoint_paths()) == crash_after

        history = resume(run, objective)
        assert history_key(history) == history_key(plain_history)
        assert run.status() == "complete"
        assert history_key(run.history()) == history_key(history)

    def test_resume_completed_run_returns_stored_history(
        self, objective, theta0, plain_history, tmp_path
    ):
        config = make_config(tmp_path)
        train_until_crash(objective, config, theta0, 2)
        run = RunStore(tmp_path).load_run("run-000001")
        first = resume(run, objective)
        # Second resume is a no-op read of history.json, not a re-train.
        second = resume(run, objective)
        assert history_key(second) == history_key(first) == history_key(plain_history)

    def test_crash_before_first_checkpoint_restarts(
        self, objective, theta0, plain_history, tmp_path
    ):
        # Kill the run before any checkpoint exists: recovery restarts from
        # scratch with the whole journal as the replay-verification ledger.
        config = make_config(tmp_path, checkpoint_every=NUM_EPOCHS + 1)
        original = TrainingCheckpointer.record_update

        def crashing(self, master, outcome, weight, new_value):
            original(self, master, outcome, weight, new_value)
            if self.journal.records_written >= 5:
                raise _Crash()

        TrainingCheckpointer.record_update = crashing
        try:
            with pytest.raises(_Crash):
                EQCEnsemble(objective, config).train(theta0, num_epochs=NUM_EPOCHS)
        finally:
            TrainingCheckpointer.record_update = original

        run = RunStore(tmp_path).load_run("run-000001")
        assert run.checkpoint_paths() == []
        assert read_journal(run.journal_path).committed_updates == 5
        history = resume(run, objective)
        assert history_key(history) == history_key(plain_history)

    def test_config_mismatch_names_fields(self, objective, theta0, tmp_path):
        config = make_config(tmp_path)
        train_until_crash(objective, config, theta0, 1)
        run = RunStore(tmp_path).load_run("run-000001")
        drifted = make_config(tmp_path, seed=SEED + 1, shots=SHOTS * 2)
        with pytest.raises(ValueError, match=r"\['seed', 'shots'\]"):
            resume(run, objective, config=drifted)


class TestFaultPlanResume:
    def test_resume_under_chaos_is_bit_exact(
        self, objective, theta0, faulted_history, tmp_path
    ):
        config = make_config(tmp_path, faults=True)
        train_until_crash(objective, config, theta0, 2)
        run = RunStore(tmp_path).load_run("run-000001")
        history = resume(run, objective)
        assert history_key(history) == history_key(faulted_history)
        # The resilience metadata must survive recovery identically too:
        # fault counters, breaker transitions, provider-side fault counts.
        assert history.metadata["fault_stats"] == faulted_history.metadata["fault_stats"]
        assert history.metadata["breakers"] == faulted_history.metadata["breakers"]
        assert (
            history.metadata["provider_faults"]
            == faulted_history.metadata["provider_faults"]
        )

    def test_a_store_with_the_removed_multiprocess_keys_resumes(
        self, objective, theta0, faulted_history, tmp_path
    ):
        """Manifests written while ``EQCConfig`` had a multiprocess mode carry
        its keys, at the defaults (the mode rejected checkpointing); the
        config rebuild reads explicit keys, so they resume unchanged."""
        config = make_config(tmp_path, faults=True)
        train_until_crash(objective, config, theta0, 2)
        run = RunStore(tmp_path).load_run("run-000001")
        manifest = run.manifest()
        # Spelled in pieces: the removed names appear nowhere else in the tree.
        manifest["config"].update({"parallel_" + "workers": 0, "parallel_" + "start_method": None})
        manifest["config"]["fault_plan"]["worker_" + "crashes"] = []
        run.write_manifest(manifest)
        history = resume(run, objective)
        assert history_key(history) == history_key(faulted_history)
        assert history.metadata["fault_stats"] == faulted_history.metadata["fault_stats"]


class TestCorruptionFallback:
    def _crashed_run(self, objective, theta0, tmp_path):
        config = make_config(tmp_path)
        train_until_crash(objective, config, theta0, 3)
        return RunStore(tmp_path).load_run("run-000001")

    def test_corrupted_latest_falls_back_one_generation(
        self, objective, theta0, plain_history, tmp_path
    ):
        run = self._crashed_run(objective, theta0, tmp_path)
        latest = run.checkpoint_paths()[-1]
        blob = bytearray(latest.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        latest.write_bytes(bytes(blob))

        history = resume(run, objective)
        assert history_key(history) == history_key(plain_history)

    @pytest.mark.parametrize("header", [b"[1]", b"123", b'"x"'])
    def test_a_newest_header_that_is_no_object_falls_back_one_generation(
        self, objective, theta0, plain_history, tmp_path, header
    ):
        whole = tmp_path / "whole"
        EQCEnsemble(objective, make_config(whole)).train(theta0, num_epochs=NUM_EPOCHS)
        uninterrupted = RunStore(whole).load_run("run-000001").journal_path.read_bytes()
        run = self._crashed_run(objective, theta0, tmp_path / "crashed")
        latest = run.checkpoint_paths()[-1]
        _, _, payload = latest.read_bytes().split(b"\n", 2)
        latest.write_bytes(CHECKPOINT_MAGIC + header + b"\n" + payload)

        history = resume(run, objective)
        assert history.metadata["persist"]["fallbacks"] == 1
        assert history_key(history) == history_key(plain_history)
        assert run.journal_path.read_bytes() == uninterrupted

    def test_fallback_is_recorded(self, objective, theta0, tmp_path):
        run = self._crashed_run(objective, theta0, tmp_path)
        latest = run.checkpoint_paths()[-1]
        latest.write_bytes(b"EQCCKPT\ngarbage")
        checkpointer = TrainingCheckpointer(
            run, checkpoint_every=1, provider=None, resume=True
        )
        try:
            assert checkpointer.fallbacks == [str(latest)]
            assert checkpointer.has_restore
        finally:
            checkpointer.close()

    def test_retention_counts_a_rewritten_generation_once(
        self, objective, theta0, plain_history, tmp_path
    ):
        # The replay after a fallback writes ``ckpt-000003`` again; counted
        # twice, it pushed the generation just restored from out at once.
        config = make_config(tmp_path, checkpoint_retention=2)
        train_until_crash(objective, config, theta0, 3)
        run = RunStore(tmp_path).load_run("run-000001")
        newest = run.checkpoint_paths()[-1]
        assert newest.name == "ckpt-000003.eqc"
        newest.write_bytes(b"EQCCKPT\ngarbage")

        kept = []
        original = TrainingCheckpointer.after_iteration

        def counting(self, *args, **kwargs):
            before = self.checkpoints_written
            original(self, *args, **kwargs)
            if self.checkpoints_written > before:
                kept.append([p.name for p in run.checkpoint_paths()])

        TrainingCheckpointer.after_iteration = counting
        try:
            history = resume(run, objective)
        finally:
            TrainingCheckpointer.after_iteration = original
        assert history_key(history) == history_key(plain_history)
        assert history.metadata["persist"]["fallbacks"] == 1
        assert kept == [
            ["ckpt-000002.eqc", "ckpt-000003.eqc"],
            ["ckpt-000003.eqc", "ckpt-000004.eqc"],
            ["ckpt-000004.eqc", "ckpt-000005.eqc"],
        ]

    @pytest.mark.parametrize("schema", [1, 2])
    def test_an_older_schema_store_is_refused_not_restarted(
        self, objective, theta0, tmp_path, schema
    ):
        # Every generation of an older store reads as "unsupported schema".
        # Treated as damage, they would all fall back, the run would restart
        # from scratch and append epoch frames behind the older journal.
        run = self._crashed_run(objective, theta0, tmp_path)
        for path in run.checkpoint_paths():
            magic, header, payload = path.read_bytes().split(b"\n", 2)
            header = json.loads(header)
            assert magic + b"\n" == CHECKPOINT_MAGIC and header["schema"] == 3
            header["schema"] = schema
            path.write_bytes(b"\n".join((magic, json.dumps(header).encode(), payload)))
        journal = run.journal_path.read_bytes()
        with pytest.raises(CheckpointSchemaError, match=f"unsupported checkpoint schema {schema}"):
            resume(run, objective)
        assert run.journal_path.read_bytes() == journal
        assert run.status() == "running"

    def test_all_generations_corrupt_restarts_from_scratch(
        self, objective, theta0, plain_history, tmp_path
    ):
        run = self._crashed_run(objective, theta0, tmp_path)
        for path in run.checkpoint_paths():
            path.write_bytes(b"not a checkpoint")
        history = resume(run, objective)
        assert history_key(history) == history_key(plain_history)

    def test_torn_journal_tail_is_tolerated(
        self, objective, theta0, plain_history, tmp_path
    ):
        run = self._crashed_run(objective, theta0, tmp_path)
        with open(run.journal_path, "ab") as fh:
            fh.write(b'deadbeef {"update": 999, "gra')
        history = resume(run, objective)
        assert history_key(history) == history_key(plain_history)
        # The resumed writer appended where the verified prefix ended, not
        # after the tear: the journal reads back whole.
        assert journal_ledger(run.journal_path) == (
            list(range(1, history.total_updates + 1)),
            list(range(1, NUM_EPOCHS + 1)),
        )

    def test_crash_tear_resume_crash_resume(
        self, objective, theta0, plain_history, tmp_path
    ):
        run = self._crashed_run(objective, theta0, tmp_path)
        with open(run.journal_path, "ab") as fh:
            fh.write(b'deadbeef {"update": 999, "gra')
        # The first recovery dies too, one checkpoint further on.  It must
        # leave a journal the second recovery can verify its replay against.
        original = TrainingCheckpointer.after_iteration

        def crashing(self, *args, **kwargs):
            original(self, *args, **kwargs)
            if self.checkpoints_written >= 1:
                raise _Crash()

        TrainingCheckpointer.after_iteration = crashing
        try:
            with pytest.raises(_Crash):
                resume(run, objective)
        finally:
            TrainingCheckpointer.after_iteration = original
        journal = read_journal(run.journal_path)
        assert journal.torn_tail_bytes == 0
        assert journal.committed_updates == 4 * objective.num_parameters

        history = resume(run, objective)
        assert history_key(history) == history_key(plain_history)
        assert journal_ledger(run.journal_path) == (
            list(range(1, history.total_updates + 1)),
            list(range(1, NUM_EPOCHS + 1)),
        )


class TestJournalDivergence:
    def test_tampered_journal_record_is_detected(self, objective, theta0, tmp_path):
        # Crash a few updates *past* the second checkpoint so the journal has
        # a replay suffix (a crash exactly at a checkpoint leaves none).
        config = make_config(tmp_path)
        original = TrainingCheckpointer.record_update

        def crashing(self, master, outcome, weight, new_value):
            original(self, master, outcome, weight, new_value)
            if self.checkpoints_written >= 2 and self.journal.records_written >= 35:
                raise _Crash()

        TrainingCheckpointer.record_update = crashing
        try:
            with pytest.raises(_Crash):
                EQCEnsemble(objective, config).train(theta0, num_epochs=NUM_EPOCHS)
        finally:
            TrainingCheckpointer.record_update = original
        run = RunStore(tmp_path).load_run("run-000001")

        # Rewrite the last journal record with a perturbed gradient but a
        # *valid* CRC frame — only replay verification can catch this.
        lines = run.journal_path.read_bytes().splitlines(keepends=True)
        record = json.loads(lines[-1][9:])
        record["gradient"] = record["gradient"] + 1.0
        body = json.dumps(record, separators=(",", ":")).encode()
        lines[-1] = b"%08x " % zlib.crc32(body) + body + b"\n"
        run.journal_path.write_bytes(b"".join(lines))

        with pytest.raises(JournalDivergenceError, match="gradient"):
            resume(run, objective)
