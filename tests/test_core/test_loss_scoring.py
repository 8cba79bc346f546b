"""Training scores its recorded epochs' exact losses after the fact.

``EQCMasterNode.train`` keeps each recorded epoch's time, parameters and
weights, and scores every loss in one ``objective.exact_losses`` call when it
returns (a partial tail epoch included, last); with a checkpointer it scores
each record just before the ``after_iteration`` hook, so the journal sees
complete records.  Either way each loss is bit-equal to
``exact_energy(record.parameters)`` scored alone.  ``IdealTrainer`` scores
its records the same way, in one matrix call.
"""

import numpy as np
import pytest

from repro import EQCConfig, EQCEnsemble
from repro.baselines.ideal import IdealTrainer
from repro.cloud.provider import CloudProvider
from repro.core.client import EQCClientNode
from repro.core.master import EQCMasterNode
from repro.core.objective import EnergyObjective
from repro.core.weighting import BOUNDS_MODERATE, WeightingConfig
from repro.devices.catalog import build_fleet
from repro.hamiltonian.expectation import EnergyEstimator
from repro.vqa.optimizer import AsgdRule
from repro.vqa.tasks import vqe_task_cycle

DEVICES = ("x2", "Belem", "Bogota")


def build_master(problem, seed=3):
    objective = EnergyObjective(problem.estimator)
    fleet = build_fleet(DEVICES)
    provider = CloudProvider(fleet, seed=seed, shots=256)
    clients = [EQCClientNode(objective, qpu, provider, shots=256) for qpu in fleet]
    return EQCMasterNode(
        objective=objective,
        clients=clients,
        task_queue=vqe_task_cycle(problem.num_parameters),
        rule=AsgdRule(learning_rate=0.1),
        weighting=WeightingConfig(bounds=BOUNDS_MODERATE),
        initial_parameters=problem.random_initial_parameters(seed=seed),
    )


@pytest.fixture
def spy(monkeypatch):
    """Every ``EnergyEstimator.exact_energy`` call's argument shape, in order."""
    calls = []
    original = EnergyEstimator.exact_energy

    def counted(self, values):
        calls.append(np.shape(values))
        return original(self, values)

    monkeypatch.setattr(EnergyEstimator, "exact_energy", counted)
    return calls


def assert_scored_alone(history, estimator):
    """Each record's loss is its parameters scored alone, records in epoch order."""
    epochs = [record.epoch for record in history.records]
    assert epochs == sorted(set(epochs))
    for record in history.records:
        assert record.loss.hex() == estimator.exact_energy(list(record.parameters)).hex()


def budget_for_two_epochs(problem):
    full = build_master(problem).train(num_epochs=4)
    return 0.5 * (full.times_hours[0] + full.times_hours[1])


class TestOneScoringPassPerTrain:
    @pytest.mark.parametrize(
        "run, expected_epochs",
        [
            (lambda master, _: master.train(num_epochs=7, record_every=3), [3, 6, 7]),
            (lambda master, _: master.train(target_updates=5 * master.cycle_length + 1),
             [1, 2, 3, 4, 5, 6]),
            (lambda master, budget: master.train(
                num_epochs=6, record_every=3, max_sim_hours=budget), [2]),
        ],
        ids=["record_every=3", "partial_tail", "max_sim_hours"],
    )
    def test_records_are_scored_in_one_call_and_equal_each_row_alone(
        self, qaoa_problem, spy, run, expected_epochs
    ):
        budget = budget_for_two_epochs(qaoa_problem)
        spy.clear()
        master = build_master(qaoa_problem)
        history = run(master, budget)
        assert [record.epoch for record in history.records] == expected_epochs
        assert spy == [(len(expected_epochs), qaoa_problem.num_parameters)]
        assert_scored_alone(history, qaoa_problem.estimator)

    def test_scoring_later_leaves_the_records_unchanged(self, qaoa_problem, monkeypatch):
        """Records scored one epoch at a time (the default ``exact_losses``
        loop, one ``exact_loss`` each) equal the one-pass records."""
        batched = build_master(qaoa_problem).train(num_epochs=5)
        monkeypatch.delattr(EnergyObjective, "exact_losses")
        looped = build_master(qaoa_problem).train(num_epochs=5)
        assert looped.records == batched.records


class TestCheckpointedTrainingScoresEachRecord:
    @pytest.mark.parametrize("record_every, recorded", [(1, 5), (2, 3)])
    def test_one_call_per_recorded_epoch(
        self, qaoa_problem, spy, tmp_path, record_every, recorded
    ):
        objective = EnergyObjective(qaoa_problem.estimator)
        theta = qaoa_problem.random_initial_parameters(seed=2)
        config = EQCConfig(device_names=DEVICES, shots=256, seed=2)
        plain = EQCEnsemble(objective, config).train(theta, num_epochs=5, record_every=record_every)
        assert len(spy) == 1
        spy.clear()
        durable = EQCConfig(
            device_names=DEVICES, shots=256, seed=2, run_store=str(tmp_path), checkpoint_every=1
        )
        history = EQCEnsemble(objective, durable).train(
            theta, num_epochs=5, record_every=record_every
        )
        assert len(history.records) == recorded
        assert spy == [(1, qaoa_problem.num_parameters)] * recorded
        assert history.records == plain.records
        assert_scored_alone(history, qaoa_problem.estimator)


def test_ideal_trainer_scores_its_records_in_one_call(qaoa_problem, spy):
    trainer = IdealTrainer(qaoa_problem.estimator, shots=256, seed=4)
    history = trainer.train(np.array([0.3, -0.2]), num_epochs=5, record_every=2)
    assert [record.epoch for record in history.records] == [2, 4, 5]
    assert spy == [(3, qaoa_problem.num_parameters)]
    assert_scored_alone(history, qaoa_problem.estimator)
