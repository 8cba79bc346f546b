"""The incrementally assembled container equals the from-scratch one.

``TrainingCheckpointer`` encodes an epoch record once and builds the history
payload around the held texts.  The oracle is the encode it replaced:
``json.dumps`` of the ``snapshot_*`` values, section by section, and the
from-values ``write_checkpoint_file`` for the whole file — checked at *every*
checkpoint of three runs whose state churns differently.
"""

import json
from operator import is_

import pytest

import repro.persist.checkpoint as checkpoint_module
from repro import (
    DEFAULT_VQE_FLEET,
    EQCConfig,
    EQCEnsemble,
    EnergyObjective,
    FaultPlan,
    OutageWindow,
    resume,
)
from repro.persist.checkpoint import TrainingCheckpointer
from repro.persist.format import write_checkpoint_file
from repro.persist.state import snapshot_environment, snapshot_history, snapshot_inflight
from repro.persist.store import RunStore
from test_resume import FAULT_PLAN, NUM_EPOCHS, make_config, train_until_crash


def oracle(value) -> bytes:
    return json.dumps(value, separators=(",", ":")).encode()


@pytest.fixture
def checked(monkeypatch, tmp_path):
    """Compare every checkpoint written with its from-scratch encode.

    Returns the list of generations checked: (epoch, record texts reused).
    """
    generations = []
    committed = {}
    real_write = checkpoint_module.write_checkpoint_file
    real_checkpoint = TrainingCheckpointer._write_checkpoint

    def capturing_write(path, sections, **kwargs):
        committed.update(path=path, sections=sections)
        return real_write(path, sections, **kwargs)

    def checking_checkpoint(self, master, history, pending, *rest):
        held_before = list(self._record_texts)
        real_checkpoint(self, master, history, pending, *rest)
        sections = committed["sections"]
        reference = dict(
            sections,
            pending=[snapshot_inflight(entry) for entry in pending],
            history=snapshot_history(history),
            environment=snapshot_environment(
                self._provider, master.clients, injector=self._injector, health=master.health
            ),
        )
        assert sections["history"] == oracle(reference["history"])
        for name in ("pending", "environment"):  # handed over as values
            assert oracle(sections[name]) == oracle(reference[name]), name
        whole = tmp_path / "oracle.eqc"
        write_checkpoint_file(whole, reference)
        assert committed["path"].read_bytes() == whole.read_bytes()
        reused = sum(map(is_, held_before, self._record_texts))
        generations.append((sections["meta"]["epoch_completed"], reused))

    monkeypatch.setattr(checkpoint_module, "write_checkpoint_file", capturing_write)
    monkeypatch.setattr(TrainingCheckpointer, "_write_checkpoint", checking_checkpoint)
    return generations


def test_golden_durable_configuration(checked, qaoa_problem, tmp_path):
    # test_training_golden.py's ``qaoa10_chaos_durable``, whose bytes it pins.
    plan = FaultPlan(
        seed=5,
        transient_failure_rate=0.15,
        outages=(OutageWindow("Bogota", 0.0, permanent=True),),
    )
    config = EQCConfig(
        device_names=DEFAULT_VQE_FLEET,
        seed=5,
        shots=1024,
        fault_plan=plan,
        run_store=str(tmp_path / "store"),
        checkpoint_every=1,
    )
    ensemble = EQCEnsemble(EnergyObjective(qaoa_problem.estimator), config)
    history = ensemble.train(qaoa_problem.random_initial_parameters(seed=5), num_epochs=8)
    # Generation n encodes record n alone and reuses the n - 1 texts it holds.
    assert checked == [(n, n - 1) for n in range(1, len(history.records) + 1)]


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
    # Generations 1-2 before the crash; the resumed checkpointer holds no
    # texts (nothing reused in generation 3) and reuses from 4 on.
    assert [epoch for epoch, _ in checked] == list(range(1, NUM_EPOCHS + 1))
    assert checked[2][1] == 0 and checked[3][1] == 3


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
