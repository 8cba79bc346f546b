"""Tests for the ideal-simulator and single-device baselines."""

import numpy as np
import pytest

from repro.baselines.ideal import IdealTrainer
from repro.baselines.single_device import DEFAULT_TERMINATION_HOURS, SingleDeviceTrainer
from repro.cloud.queueing import QueueModel
from repro.core.ensemble import EQCConfig, EQCEnsemble
from repro.core.objective import EnergyObjective


class TestIdealTrainer:
    def test_history_structure(self, vqe_problem):
        trainer = IdealTrainer(vqe_problem.estimator, shots=256, seed=0)
        history = trainer.train(vqe_problem.random_initial_parameters(), num_epochs=3)
        assert len(history) == 3
        assert history.label == "ideal_simulator"
        assert history.total_updates == 3 * 16

    def test_exact_mode_decreases_loss_monotonically_early(self, vqe_problem):
        trainer = IdealTrainer(vqe_problem.estimator, exact=True)
        history = trainer.train(vqe_problem.random_initial_parameters(), num_epochs=6)
        assert history.losses[-1] < history.losses[0]

    def test_sampled_mode_close_to_exact_mode(self, vqe_problem):
        theta = vqe_problem.random_initial_parameters()
        exact = IdealTrainer(vqe_problem.estimator, exact=True).train(theta, num_epochs=4)
        sampled = IdealTrainer(vqe_problem.estimator, shots=8192, seed=1).train(theta, num_epochs=4)
        assert sampled.losses[-1] == pytest.approx(exact.losses[-1], abs=0.5)

    def test_record_every(self, vqe_problem):
        trainer = IdealTrainer(vqe_problem.estimator, exact=True)
        history = trainer.train(vqe_problem.random_initial_parameters(), 4, record_every=2)
        assert list(history.epochs) == [2, 4]

    def test_invalid_epochs(self, vqe_problem):
        with pytest.raises(ValueError):
            IdealTrainer(vqe_problem.estimator).train([0.0] * 16, num_epochs=0)

    def test_qaoa_training_improves_cost(self, qaoa_problem):
        trainer = IdealTrainer(qaoa_problem.estimator, exact=True, learning_rate=0.2)
        theta = qaoa_problem.random_initial_parameters()
        history = trainer.train(theta, num_epochs=20)
        assert history.losses[-1] < qaoa_problem.energy(theta)


class TestSingleDeviceTrainer:
    def test_history_records_device(self, vqe_problem):
        trainer = SingleDeviceTrainer(
            EnergyObjective(vqe_problem.estimator), "Belem", shots=256, seed=0
        )
        history = trainer.train(vqe_problem.random_initial_parameters(), num_epochs=2)
        assert history.device_names == ("Belem",)
        assert history.label == "single[Belem]"
        assert len(history) == 2
        assert history.total_hours() > 0

    def test_termination_after_wall_clock_budget(self, vqe_problem):
        """A crawling device must be cut off like the paper's 2-week rule."""
        slow_queue = QueueModel(mean_wait_seconds=30000.0, sigma=0.1, popularity=0.9)
        trainer = SingleDeviceTrainer(
            EnergyObjective(vqe_problem.estimator),
            "Belem",
            shots=128,
            seed=0,
            max_wall_hours=20.0,
            queue_model=slow_queue,
        )
        history = trainer.train(vqe_problem.random_initial_parameters(), num_epochs=50)
        assert history.terminated_early
        assert len(history) < 50
        assert "20" in history.termination_reason

    def test_stopped_run_records_its_stopping_epoch(self, vqe_problem):
        """The cutoff epoch is recorded even off the ``record_every`` cadence,
        so a stopped run still reports a throughput and a final loss."""
        trainer = SingleDeviceTrainer(
            EnergyObjective(vqe_problem.estimator),
            "Belem",
            shots=128,
            seed=0,
            max_wall_hours=20.0,
            queue_model=QueueModel(30000.0, 0.1, 0.9),
        )
        history = trainer.train(vqe_problem.random_initial_parameters(), 50, record_every=5)
        assert history.terminated_early
        assert list(history.epochs) == [1]
        assert history.total_hours() > 20.0
        assert np.isfinite(history.epochs_per_hour())
        assert np.isfinite(history.final_loss())

    def test_default_termination_matches_paper(self):
        assert DEFAULT_TERMINATION_HOURS == pytest.approx(336.0)

    def test_loss_improves_on_clean_device(self, vqe_problem):
        trainer = SingleDeviceTrainer(
            EnergyObjective(vqe_problem.estimator), "Bogota", shots=512, seed=3
        )
        theta = vqe_problem.random_initial_parameters()
        history = trainer.train(theta, num_epochs=4)
        assert history.losses[-1] < vqe_problem.energy(theta)

    def test_invalid_epochs(self, vqe_problem):
        trainer = SingleDeviceTrainer(EnergyObjective(vqe_problem.estimator), "Belem")
        with pytest.raises(ValueError):
            trainer.train([0.0] * 16, num_epochs=0)


def _hex(values):
    return [float(v).hex() for v in values]


class TestSingleDeviceIsAnUnweightedEnsembleOfOne:
    """The baseline and a one-device unweighted ``EQCEnsemble`` run the same
    master loop, so their seeded histories agree bit for bit."""

    @pytest.mark.parametrize(
        "device, seed, queue_model",
        [
            ("Belem", 0, None),
            ("Bogota", 3, None),
            ("x2", 5, None),
            ("Quito", 11, QueueModel(30000.0, 0.1, 0.9)),
        ],
    )
    def test_histories_match_bit_for_bit(self, vqe_problem, device, seed, queue_model):
        objective = EnergyObjective(vqe_problem.estimator)
        theta = vqe_problem.random_initial_parameters(seed=seed)
        single = SingleDeviceTrainer(
            objective,
            device,
            shots=128,
            learning_rate=0.15,
            seed=seed,
            max_wall_hours=1e9,
            queue_model=queue_model,
        ).train(theta, num_epochs=2)
        ensemble = EQCEnsemble(
            objective,
            EQCConfig(
                device_names=(device,),
                shots=128,
                learning_rate=0.15,
                weight_bounds=None,
                seed=seed,
                queue_models={device: queue_model} if queue_model is not None else None,
            ),
        ).train(theta, num_epochs=2)
        assert _hex(single.losses) == _hex(ensemble.losses)
        assert _hex(single.times_hours) == _hex(ensemble.times_hours)
        assert [_hex(r.parameters) for r in single.records] == [
            _hex(r.parameters) for r in ensemble.records
        ]
        assert [r.weights for r in single.records] == [
            {f"client_{device}": 1.0}
        ] * 2
        assert single.total_jobs == single.total_updates == 2 * 16
        assert single.metadata["max_staleness"] == 0
