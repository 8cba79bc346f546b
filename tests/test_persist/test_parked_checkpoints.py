"""A due checkpoint forces nothing: jobs stay parked, history stays in the journal.

The contract since schema 2, checked differentially on the configuration whose bytes
``test_training_golden.py`` pins (``qaoa10_chaos_durable``):

* the fleet's engine passes do not depend on the checkpoint cadence;
* every generation — some holding a job whose physics is still parked — resumes
  to the journal, containers and history of the never-interrupted run;
* a parked job survives snapshot -> container -> restore into a fresh ensemble
  with its counts and its endpoint's stream bit-equal.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.cloud.provider as provider_module
from repro import (
    DEFAULT_VQE_FLEET,
    EQCConfig,
    EQCEnsemble,
    EnergyObjective,
    FaultPlan,
    OutageWindow,
    RetryPolicy,
    resume,
)
from repro.core.master import EQCMasterNode, LoopState
from repro.core.weighting import WeightingConfig
from repro.devices.qpu import _wave_noise
from repro.persist.format import read_checkpoint_file, write_checkpoint_file
from repro.persist.state import restore_parked, snapshot_inflight
from repro.persist.store import RunStore
from repro.vqa.optimizer import AsgdRule
from repro.vqa.tasks import GradientTask, vqe_task_cycle
from test_resume import history_key, train_until_crash

SEED = 5
EPOCHS = 8


def golden_config(store, **overrides):
    plan = FaultPlan(
        seed=SEED,
        transient_failure_rate=0.15,
        outages=(OutageWindow("Bogota", 0.0, permanent=True),),
    )
    kwargs = dict(
        device_names=DEFAULT_VQE_FLEET,
        seed=SEED,
        shots=1024,
        fault_plan=plan,
        run_store=str(store),
        checkpoint_every=1,
    )
    kwargs.update(overrides)
    return EQCConfig(**kwargs)


@pytest.fixture(scope="module")
def objective(qaoa_problem):
    return EnergyObjective(qaoa_problem.estimator)


@pytest.fixture(scope="module")
def theta0(qaoa_problem):
    return qaoa_problem.random_initial_parameters(seed=SEED)


def run_files(run):
    paths = [run.journal_path, *run.checkpoint_paths()]
    return {path.name: path.read_bytes() for path in paths}


def test_engine_passes_do_not_depend_on_the_checkpoint_cadence(
    objective, theta0, tmp_path, monkeypatch
):
    waves = []
    real = provider_module.resolve_batches

    def counting(parked):
        if parked:
            waves.append(len(parked))
        real(parked)

    monkeypatch.setattr(provider_module, "resolve_batches", counting)
    runs = {}
    for cadence in (1, EPOCHS + 1):
        del waves[:]
        config = golden_config(tmp_path / f"every-{cadence}", checkpoint_every=cadence)
        history = EQCEnsemble(objective, config).train(theta0, num_epochs=EPOCHS)
        runs[cadence] = (list(waves), history_key(history))
        assert history.metadata["persist"]["checkpoints_written"] == EPOCHS // cadence
    assert runs[1] == runs[EPOCHS + 1]
    # Waves, not one pass per job: that is what a forced resolve used to cost.
    widths, _ = runs[1]
    assert sum(widths) > 2 * len(widths)


@pytest.fixture(scope="module")
def uninterrupted(objective, theta0, tmp_path_factory):
    store = tmp_path_factory.mktemp("uninterrupted")
    config = golden_config(store, checkpoint_retention=EPOCHS)
    history = EQCEnsemble(objective, config).train(theta0, num_epochs=EPOCHS)
    return history, RunStore(store).load_run("run-000001")


def test_generations_hold_parked_jobs_and_no_record(uninterrupted):
    _, run = uninterrupted
    parked = []
    for path in run.checkpoint_paths():
        sections = read_checkpoint_file(path)
        assert sections["history"]["records"] == []
        parked.append(sum(entry["parked"] is not None for entry in sections["pending"]))
    assert len(parked) == EPOCHS and max(parked) >= 2


@pytest.mark.parametrize("generation", range(1, EPOCHS + 1))
def test_every_generation_resumes_to_the_uninterrupted_run(
    generation, uninterrupted, objective, theta0, tmp_path
):
    reference, reference_run = uninterrupted
    config = golden_config(tmp_path, checkpoint_retention=EPOCHS)
    train_until_crash(objective, config, theta0, generation, num_epochs=EPOCHS)
    run = RunStore(tmp_path).load_run("run-000001")
    newest = read_checkpoint_file(run.checkpoint_paths()[-1])
    assert newest["meta"]["epoch_completed"] == generation

    history = resume(run, objective)
    assert history_key(history) == history_key(reference)
    assert run_files(run) == run_files(reference_run)
    # history.json differs in what this process wrote, and in nothing else.
    stored, expected = (json.loads(r.history_path.read_text()) for r in (run, reference_run))
    assert stored["metadata"].pop("persist") != expected["metadata"].pop("persist")
    assert stored == expected


def test_a_straggler_cut_while_parked_resumes(objective, theta0, tmp_path):
    # The other owners of parked physics: a straggler the master cut (its
    # heap entry still drains the job) and, never parked at a checkpoint, a
    # job that blew its deadline awaiting results (its shots drawn at once).
    plan = FaultPlan(
        seed=SEED, transient_failure_rate=0.15, result_timeout_rate=0.2,
        result_delay_seconds=900.0,
    )
    chaos = dict(
        fault_plan=plan,
        shots=256,
        checkpoint_retention=12,
        dispatch_deadline=600.0,
        retry_policy=RetryPolicy(max_attempts=4, deadline_seconds=2000.0),
    )
    reference = EQCEnsemble(objective, golden_config(tmp_path / "whole", **chaos)).train(
        theta0, num_epochs=12
    )
    assert reference.metadata["fault_stats"]["stragglers_cut"] > 0
    assert reference.metadata["provider_faults"]["job_failures"] > 0
    reference_run = RunStore(tmp_path / "whole").load_run("run-000001")

    train_until_crash(objective, golden_config(tmp_path / "cut", **chaos), theta0, 2, 12)
    run = RunStore(tmp_path / "cut").load_run("run-000001")
    newest = read_checkpoint_file(run.checkpoint_paths()[-1])
    kinds = {entry["kind"] for entry in newest["pending"] if entry["parked"] is not None}
    assert kinds == {"job", "straggler"}
    history = resume(run, objective)
    assert history_key(history) == history_key(reference)
    assert history.metadata["provider_faults"] == reference.metadata["provider_faults"]
    assert run_files(run) == run_files(reference_run)


# ---------------------------------------------------------------------------
# one parked job, snapshot -> container -> restore
# ---------------------------------------------------------------------------

FLEET = ("x2", "Belem", "Quito", "Lima")


def make_master(objective, seed):
    ensemble = EQCEnsemble(objective, EQCConfig(device_names=FLEET, seed=seed, shots=256))
    master = EQCMasterNode(
        objective,
        ensemble.clients,
        vqe_task_cycle(objective.num_parameters),
        AsgdRule(learning_rate=0.1),
        WeightingConfig(),
        np.zeros(objective.num_parameters),
    )
    return ensemble, master


def counts_of(outcome_job):
    return [
        (dict(result.counts), [hits.tobytes() for hits in result.counts.hits])
        for result in outcome_job.results
    ]


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    jobs=st.lists(
        st.tuples(
            st.integers(0, 1),  # parameter index
            st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2),  # theta
            st.floats(0.0, 5e4),  # submit time
        ),
        min_size=1,
        max_size=len(FLEET),
    ),
)
def test_a_parked_job_round_trips_through_a_container(objective, seed, jobs):
    original, master = make_master(objective, seed)
    entries = []
    for number, (client, (index, theta, now)) in enumerate(zip(original.clients, jobs)):
        master.state.values[:] = theta
        master.state.version = number
        task = GradientTask(task_id=number, parameter_index=index)
        entries.append(master._dispatch(LoopState([], number, now), client, task))
    assert len(original.provider._parked) == len(jobs)

    # Heap order is not park order: snapshot (and restore) the entries reversed.
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "c.eqc"
        write_checkpoint_file(
            path,
            {
                "pending": [snapshot_inflight(e, master) for e in reversed(entries)],
                "environment": original.provider.snapshot_rows(),
            },
        )
        sections = read_checkpoint_file(path)
    stored = sections["pending"]
    assert all(entry["parked"] is not None for entry in stored)
    assert len(original.provider._parked) == len(jobs)  # the snapshot resolved nothing

    fresh, _ = make_master(objective, seed)
    fresh.provider.restore_rows(sections["environment"])
    clients = {client.name: client for client in fresh.clients}
    stored.sort(key=lambda entry: entry["parked"][-1])  # the job's parked position
    restored = [restore_parked(entry, clients[entry["client"]]) for entry in stored]
    for ours, theirs in zip(fresh.provider._parked, original.provider._parked):
        assert ours.circuits.theta.tobytes() == theirs.circuits.theta.tobytes()
        # Same clock half (device spec, footprint, drift triples, width), so
        # the same noise record when the wave is built.
        assert ours.qpu.spec == theirs.qpu.spec
        assert (ours.footprint, ours.drifts, ours.width, ours.shots) == (
            theirs.footprint, theirs.drifts, theirs.width, theirs.shots
        )
        assert _wave_noise([ours]).specs() == _wave_noise([theirs]).specs()
        assert (ours.durations, ours.queue_seconds) == (theirs.durations, theirs.queue_seconds)

    for entry, job in zip(entries, restored):
        expected_job = master._dispatched[entry.job_id]
        assert clients[entry.client.name].collect(job) == master.gather(entry)
        assert counts_of(job) == counts_of(expected_job)
    assert not fresh.provider._parked and not original.provider._parked
    assert fresh.provider.snapshot_state() == original.provider.snapshot_state()
