"""A generation holds no epoch record and no decimal float.

Schema 1 re-wrote the append-only ``history.records`` into every container.
Since schema 2 a record is journaled when the history gains it and a container
carries the record *count* and a running digest; schema 3 stores the state as
flat rows whose floats are packed float64 columns.  The oracle, at *every*
checkpoint of three runs whose state churns differently: the container holds
no record; each epoch frame's body is ``encode_json(snapshot_record(r))`` of
the record at its position; count and digest match the frames; the whole file
equals the from-values ``write_checkpoint_file`` of the owners' snapshot
methods; and no JSON part of it decodes to a Python float.
"""

import hashlib
import json

import pytest

import repro.persist.checkpoint as checkpoint_module
from repro import EQCEnsemble, EnergyObjective, FaultPlan, OutageWindow, resume
from repro.persist.checkpoint import TrainingCheckpointer
from repro.persist.format import encode_json, write_checkpoint_file
from repro.persist.state import snapshot_environment, snapshot_inflight, snapshot_record
from repro.persist.store import RunStore
from test_parked_checkpoints import golden_config
from test_resume import FAULT_PLAN, NUM_EPOCHS, is_epoch_frame, make_config, train_until_crash


def epoch_frame_bodies(path):
    return [line[9:] for line in path.read_bytes().splitlines() if is_epoch_frame(line)]


def decimal_floats(blob):
    """Every number the container's JSON parts (header and sections) spell
    with a fraction or exponent, and every NaN or Infinity constant."""
    found = []
    _, header, body = blob.split(b"\n", 2)
    texts, offset = [header], 0
    for section in json.loads(header)["sections"]:
        texts.append(body[offset : offset + section["length"]].partition(b"\n")[0])
        offset += section["length"]
    for text in texts:
        json.loads(text, parse_float=found.append, parse_constant=found.append)
    return found


@pytest.fixture
def checked(monkeypatch, tmp_path):
    """Check every checkpoint written against the oracle above.

    Returns the list of generations checked: (epoch, parked jobs stored).
    """
    generations = []
    real_write = checkpoint_module.write_checkpoint_file

    def checking_write(path, sections, **kwargs):
        size = real_write(path, sections, **kwargs)
        checkpointer, master, history, pending = context
        bodies = epoch_frame_bodies(checkpointer.run.journal_path)
        assert bodies == [encode_json(snapshot_record(r)).encode() for r in history.records]
        assert sections["history"] == {
            "records": [],
            "record_count": len(bodies),
            "digest": hashlib.sha256(b"".join(bodies)).hexdigest(),
        }
        reference = dict(
            sections,
            master=master.snapshot_state(),
            pending=[snapshot_inflight(entry, master) for entry in pending],
            environment=snapshot_environment(
                checkpointer._provider,
                master.clients,
                injector=checkpointer._injector,
                health=master.health,
            ),
        )
        whole = tmp_path / "oracle.eqc"
        write_checkpoint_file(whole, reference)
        assert path.read_bytes() == whole.read_bytes()
        assert decimal_floats(path.read_bytes()) == []
        parked = sum(entry["parked"] is not None for entry in sections["pending"])
        assert parked == len(checkpointer._provider._parked)
        generations.append((sections["meta"]["epoch_completed"], parked))
        return size

    context = ()
    real_hook = TrainingCheckpointer.after_iteration

    def remembering_hook(self, master, history, loop):
        nonlocal context
        context = (self, master, history, loop.pending)
        real_hook(self, master, history, loop)

    monkeypatch.setattr(checkpoint_module, "write_checkpoint_file", checking_write)
    monkeypatch.setattr(TrainingCheckpointer, "after_iteration", remembering_hook)
    return generations


def test_golden_durable_configuration(checked, qaoa_problem, tmp_path):
    # test_training_golden.py's ``qaoa10_chaos_durable``, whose bytes it pins.
    config = golden_config(tmp_path / "store")
    ensemble = EQCEnsemble(EnergyObjective(qaoa_problem.estimator), config)
    history = ensemble.train(qaoa_problem.random_initial_parameters(seed=5), num_epochs=8)
    assert [epoch for epoch, _ in checked] == list(range(1, len(history.records) + 1))
    # Every parked job is owned by a heap entry, and several generations store some.
    assert sum(parked > 0 for _, parked in checked) >= 4


#: test_resume's chaos (an outage window, retries, result timeouts) plus a
#: device that dies mid-run, so heap entries and breaker state churn.
CHURN_PLAN = FaultPlan(
    transient_failure_rate=FAULT_PLAN.transient_failure_rate,
    result_timeout_rate=FAULT_PLAN.result_timeout_rate,
    result_delay_seconds=FAULT_PLAN.result_delay_seconds,
    outages=FAULT_PLAN.outages + (OutageWindow("Bogota", 400.0, permanent=True),),
    seed=FAULT_PLAN.seed,
)


def test_faulted_fleet_with_a_device_retired_mid_run(checked, vqe_problem, tmp_path):
    objective = EnergyObjective(vqe_problem.estimator)
    config = make_config(tmp_path, faults=True, fault_plan=CHURN_PLAN)
    theta0 = vqe_problem.random_initial_parameters(seed=7)
    history = EQCEnsemble(objective, config).train(theta0, num_epochs=NUM_EPOCHS)
    assert len(checked) == NUM_EPOCHS
    retired = [e for e in history.metadata["fleet_events"] if e["device"] == "Bogota"]
    assert retired and retired[0]["time"] > 0.0
    assert history.metadata["provider_faults"]["retries"] > 0


def test_run_resumed_from_a_generation(checked, vqe_problem, tmp_path):
    objective = EnergyObjective(vqe_problem.estimator)
    config = make_config(tmp_path, faults=True)
    theta0 = vqe_problem.random_initial_parameters(seed=7)
    train_until_crash(objective, config, theta0, 2)
    resume(RunStore(tmp_path).load_run("run-000001"), objective)
    # Generations 1-2 before the crash; the resumed checkpointer rebuilt its
    # count and digest from the journal and carries them on from generation 3.
    assert [epoch for epoch, _ in checked] == list(range(1, NUM_EPOCHS + 1))


def test_same_seed_runs_write_identical_artifacts(vqe_problem, tmp_path):
    # history.json used to carry a wall-clock float (``persist_seconds``)
    # inside an otherwise deterministic run directory.
    objective = EnergyObjective(vqe_problem.estimator)
    theta0 = vqe_problem.random_initial_parameters(seed=7)
    written = []
    for store in (tmp_path / "a", tmp_path / "b"):
        config = make_config(store, faults=True)
        EQCEnsemble(objective, config).train(theta0, num_epochs=NUM_EPOCHS)
        run = RunStore(store).load_run("run-000001")
        paths = [run.history_path, run.journal_path, *run.checkpoint_paths()]
        written.append({path.name: path.read_bytes() for path in paths})
    assert written[0] == written[1]
    assert "persist_seconds" not in json.loads(written[0]["history.json"])["metadata"]["persist"]
