"""Tests for the EQCEnsemble facade."""

import numpy as np
import pytest

from repro.circuit import Parameter, QuantumCircuit
from repro.cloud.queueing import QueueModel
from repro.core.ensemble import EQCConfig, EQCEnsemble
from repro.core.master import EQCMasterNode
from repro.core.objective import EnergyObjective
from repro.core.weighting import BOUNDS_MODERATE, WeightingConfig
from repro.faults import FaultPlan, OutageWindow, RetryPolicy
from repro.hamiltonian.expectation import EnergyEstimator
from repro.vqa.optimizer import AsgdRule
from repro.vqa.tasks import vqe_task_cycle

#: A plan that injects something on every run of the small fleets below.
CHAOS = FaultPlan(seed=11, transient_failure_rate=0.3)


def assert_histories_identical(reference, candidate):
    """Bit-equal records, totals and run metadata."""
    assert len(candidate.records) == len(reference.records)
    for expected, actual in zip(reference.records, candidate.records):
        assert actual.loss == expected.loss
        assert np.array_equal(actual.parameters, expected.parameters)
        assert actual.sim_time_hours == expected.sim_time_hours
        assert actual.weights == expected.weights
    assert candidate.total_updates == reference.total_updates
    assert candidate.total_jobs == reference.total_jobs
    assert candidate.metadata == reference.metadata


class TestEQCConfig:
    def test_defaults(self):
        config = EQCConfig()
        assert len(config.device_names) == 10
        assert config.shots == 8192
        assert config.learning_rate == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            EQCConfig(device_names=())
        with pytest.raises(ValueError):
            EQCConfig(shots=0)
        with pytest.raises(ValueError):
            EQCConfig(learning_rate=0.0)

    def test_tenant_rate_must_be_positive(self):
        with pytest.raises(ValueError, match="tenant_jobs_per_hour"):
            EQCConfig(tenant_jobs_per_hour=0.0)
        with pytest.raises(ValueError, match="tenant_jobs_per_hour"):
            EQCConfig(tenant_jobs_per_hour=-2.0)

    def test_describe(self):
        assert "unweighted" in EQCConfig(weight_bounds=None).describe()
        assert "3 devices" in EQCConfig(device_names=("x2", "Belem", "Quito")).describe()
        assert EQCConfig(label="custom").describe() == "custom"

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"device_names": ()}, "at least one device"),
            ({"shots": 0}, "shots"),
            ({"learning_rate": -0.1}, "learning_rate"),
            ({"learning_rate": float("nan")}, "learning_rate"),
            ({"learning_rate": float("inf")}, "learning_rate"),
            ({"weight_bounds": (0.5, 1.5)}, "weight_bounds"),
            ({"background_tenants": -1}, "background_tenants"),
            ({"dispatch_deadline": -5.0}, "dispatch_deadline"),
            ({"min_live_devices": 4}, "min_live_devices"),
            ({"retry_policy": RetryPolicy()}, "retry_policy"),
        ],
        ids=[
            "device_names",
            "shots",
            "learning_rate",
            "learning_rate-nan",
            "learning_rate-inf",
            "weight_bounds-tuple",
            "background_tenants",
            "dispatch_deadline",
            "min_live_devices",
            "retry_policy",
        ],
    )
    def test_invalid_field_names_itself(self, overrides, message):
        kwargs = {"device_names": ("x2", "Belem", "Bogota"), **overrides}
        with pytest.raises(ValueError, match=message):
            EQCConfig(**kwargs)

    @pytest.mark.parametrize(
        "overrides",
        [{"scheduling_policy": "fifo"}, {"background_tenants": 4}],
        ids=["policy", "tenants"],
    )
    def test_checkpointing_with_the_scheduler_is_rejected(self, tmp_path, overrides):
        with pytest.raises(ValueError, match="checkpointing is incompatible"):
            EQCConfig(checkpoint_every=1, run_store=str(tmp_path), **overrides)

    @pytest.mark.parametrize(
        "overrides, checkpointing, scheduler, tolerant",
        [
            ({"checkpoint_every": 1, "fault_plan": CHAOS}, True, False, True),
            ({"checkpoint_every": 1, "dispatch_deadline": 600.0}, True, False, True),
            ({"scheduling_policy": "fifo", "fault_plan": CHAOS}, False, True, True),
            ({"background_tenants": 4, "dispatch_deadline": 600.0}, False, True, True),
            ({"fault_plan": CHAOS, "dispatch_deadline": 600.0}, False, False, True),
        ],
        ids=[
            "checkpointing-faults",
            "checkpointing-deadline",
            "scheduler-faults",
            "tenants-deadline",
            "faults-deadline",
        ],
    )
    def test_every_other_pairing_is_accepted(
        self, tmp_path, overrides, checkpointing, scheduler, tolerant
    ):
        kwargs = dict(overrides)
        if checkpointing:
            kwargs["run_store"] = str(tmp_path)
        config = EQCConfig(device_names=("x2", "Belem"), **kwargs)
        assert config.checkpointing_enabled is checkpointing
        assert config.uses_scheduler is scheduler
        assert config.fault_tolerant is tolerant


#: Each entry maps the objective's parameter count to a bad starting vector.
BAD_INITIAL_PARAMETERS = {
    "nan": lambda n: [float("nan")] + [0.0] * (n - 1),
    "inf": lambda n: [0.0] * (n - 1) + [float("inf")],
    "-inf": lambda n: [0.0, float("-inf")] + [0.0] * (n - 2),
    "short": lambda n: [0.0] * (n - 1),
    "long": lambda n: [0.0] * (n + 1),
    "matrix": lambda n: [[0.0] * n],
}


class TestInitialParameters:
    """A bad starting vector is refused at the entry point, naming itself."""

    @pytest.mark.parametrize("case", sorted(BAD_INITIAL_PARAMETERS))
    def test_train_refuses_before_creating_a_run(self, vqe_problem, tmp_path, case):
        ensemble = EQCEnsemble.for_estimator(
            vqe_problem.estimator,
            EQCConfig(
                device_names=("x2",),
                shots=64,
                seed=0,
                checkpoint_every=1,
                run_store=str(tmp_path / "runs"),
            ),
        )
        theta = BAD_INITIAL_PARAMETERS[case](vqe_problem.estimator.num_parameters)
        with pytest.raises(ValueError, match="^initial_parameters "):
            ensemble.train(theta, num_epochs=1)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("case", sorted(BAD_INITIAL_PARAMETERS))
    def test_master_refuses_at_construction(self, vqe_problem, case):
        ensemble = EQCEnsemble.for_estimator(
            vqe_problem.estimator, EQCConfig(device_names=("x2",), shots=64, seed=0)
        )
        theta = BAD_INITIAL_PARAMETERS[case](vqe_problem.estimator.num_parameters)
        with pytest.raises(ValueError, match="^initial_parameters "):
            EQCMasterNode(
                objective=ensemble.objective,
                clients=ensemble.clients,
                task_queue=vqe_task_cycle(vqe_problem.estimator.num_parameters),
                rule=AsgdRule(0.1),
                weighting=WeightingConfig(),
                initial_parameters=theta,
            )


class TestEQCEnsemble:
    @pytest.fixture()
    def small_config(self):
        return EQCConfig(
            device_names=("x2", "Belem", "Bogota"),
            shots=512,
            weight_bounds=BOUNDS_MODERATE,
            seed=1,
        )

    def test_construction(self, vqe_problem, small_config):
        ensemble = EQCEnsemble(EnergyObjective(vqe_problem.estimator), small_config)
        assert ensemble.device_names == ("x2", "Belem", "Bogota")
        assert len(ensemble.clients) == 3

    def test_for_estimator_constructor(self, vqe_problem, small_config):
        ensemble = EQCEnsemble.for_estimator(vqe_problem.estimator, small_config)
        assert isinstance(ensemble.objective, EnergyObjective)

    def test_train_returns_history_with_utilization(self, vqe_problem, small_config):
        ensemble = EQCEnsemble(EnergyObjective(vqe_problem.estimator), small_config)
        history = ensemble.train(
            vqe_problem.random_initial_parameters(), num_epochs=2
        )
        assert len(history) == 2
        assert set(history.metadata["utilization"].keys()) == {"x2", "Belem", "Bogota"}
        assert history.metadata["num_clients"] == 3

    def test_record_every_validated_in_train(self, vqe_problem):
        ensemble = EQCEnsemble.for_estimator(
            vqe_problem.estimator,
            EQCConfig(device_names=("x2",), shots=64, seed=0),
        )
        with pytest.raises(ValueError, match="record_every"):
            ensemble.train(
                np.zeros(vqe_problem.estimator.num_parameters), num_epochs=1, record_every=0
            )

    def test_parallelism_beats_single_device_wall_clock(self, vqe_problem):
        """The 3-device ensemble must finish the same number of epochs in less
        simulated time than the same problem run on its slowest member."""
        from repro.baselines.single_device import SingleDeviceTrainer

        theta = vqe_problem.random_initial_parameters()
        ensemble = EQCEnsemble(
            EnergyObjective(vqe_problem.estimator),
            EQCConfig(device_names=("x2", "Belem", "Bogota"), shots=256, seed=2),
        )
        eqc_history = ensemble.train(theta, num_epochs=2)
        single = SingleDeviceTrainer(
            EnergyObjective(vqe_problem.estimator), "Bogota", shots=256, seed=2
        ).train(theta, num_epochs=2)
        assert eqc_history.total_hours() < single.total_hours()

    def test_trains_an_ansatz_with_affine_angles(self, heisenberg_h):
        """``ry(2 * t)`` angles are ParameterExpressions: the transpile cache
        keys them as such instead of failing to convert them to floats."""
        theta = [Parameter(f"t{i}") for i in range(4)]
        ansatz = QuantumCircuit(4)
        for qubit, angle in enumerate(theta):
            ansatz.ry(2 * angle, qubit)
        for qubit in range(3):
            ansatz.cx(qubit, qubit + 1)
        ensemble = EQCEnsemble.for_estimator(
            EnergyEstimator(ansatz, heisenberg_h),
            EQCConfig(device_names=("x2", "Belem"), shots=128, seed=0),
        )
        history = ensemble.train(np.full(4, 0.3), num_epochs=1)
        assert len(history) == 1
        assert np.isfinite(history.losses).all()

    def test_deterministic_given_seed(self, vqe_problem, small_config):
        theta = vqe_problem.random_initial_parameters()
        a = EQCEnsemble(EnergyObjective(vqe_problem.estimator), small_config).train(theta, 2)
        b = EQCEnsemble(EnergyObjective(vqe_problem.estimator), small_config).train(theta, 2)
        assert np.allclose(a.losses, b.losses)

    @pytest.mark.parametrize(
        "plan, injects",
        [
            (None, False),
            (FaultPlan(), False),
            (FaultPlan(seed=4, result_delay_seconds=30.0), False),
            (FaultPlan(transient_failure_rate=0.1), True),
            (FaultPlan(result_timeout_rate=0.1), True),
            (FaultPlan(outages=[OutageWindow(device="Belem", duration=60.0)]), True),
            (FaultPlan(calibration_blackouts=[OutageWindow(device="x2", duration=60.0)]), True),
        ],
        ids=["none", "empty", "inert", "transient", "timeout", "outage", "blackout"],
    )
    def test_fault_injector_exists_only_when_the_plan_injects(self, vqe_problem, plan, injects):
        config = EQCConfig(device_names=("x2", "Belem"), shots=64, fault_plan=plan)
        ensemble = EQCEnsemble(EnergyObjective(vqe_problem.estimator), config)
        assert config.faults_enabled is injects
        assert (ensemble.fault_injector is not None) is injects
        assert ensemble.provider._faults is ensemble.fault_injector


class TestSeededReplay:
    """The same seeded configuration trains to a bit-equal history, in every
    mode the ensemble runs: its one in-process loop replays each device's
    streams exactly."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"weight_bounds": None},
            {"refresh_weights": True},
            {"queue_models": {"x2": QueueModel(mean_wait_seconds=180.0, popularity=0.8)}},
            {"fault_plan": CHAOS},
            {"dispatch_deadline": 120.0},
            {"scheduling_policy": "fifo"},
            {"background_tenants": 20},
        ],
        ids=[
            "statistical",
            "unweighted",
            "refresh_weights",
            "queue_models",
            "faults",
            "deadline",
            "fifo",
            "tenants",
        ],
    )
    def test_repeat_run_is_bit_equal(self, vqe_problem, overrides, forget_arrival_recordings):
        def run():
            config = EQCConfig(
                device_names=("x2", "Belem", "Bogota"), shots=256, seed=1, **overrides
            )
            ensemble = EQCEnsemble(EnergyObjective(vqe_problem.estimator), config)
            return ensemble.train(vqe_problem.random_initial_parameters(seed=1), num_epochs=2)

        first = run()
        forget_arrival_recordings()  # the repeat draws any tenant traffic afresh
        assert_histories_identical(first, run())
