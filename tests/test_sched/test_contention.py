"""End-to-end contention tests: EQC training on a multi-tenant cloud."""

import numpy as np
import pytest

from repro import EQCConfig, EQCEnsemble, EnergyObjective


DEVICES = ("x2", "Belem", "Bogota")


def run_eqc(vqe_problem, tenants, policy="fifo", num_epochs=2):
    config = EQCConfig(
        device_names=DEVICES,
        shots=128,
        seed=7,
        scheduling_policy=policy,
        background_tenants=tenants,
    )
    ensemble = EQCEnsemble(EnergyObjective(vqe_problem.estimator), config)
    theta = np.linspace(0.1, 1.6, 16)
    return ensemble.train(theta, num_epochs=num_epochs)


class TestSchedulerWiring:
    def test_policy_implies_scheduler(self, vqe_problem):
        config = EQCConfig(device_names=DEVICES, scheduling_policy="fifo")
        ensemble = EQCEnsemble(EnergyObjective(vqe_problem.estimator), config)
        assert ensemble.scheduler is not None
        assert ensemble.provider.scheduler is ensemble.scheduler
        assert ensemble.scheduler.policy.name == "fifo"

    def test_default_config_keeps_statistical_fallback(self, vqe_problem):
        config = EQCConfig(device_names=DEVICES)
        ensemble = EQCEnsemble(EnergyObjective(vqe_problem.estimator), config)
        assert not config.uses_scheduler
        assert ensemble.scheduler is None
        assert ensemble.provider.scheduler is None

    def test_history_carries_scheduler_metrics(self, vqe_problem):
        history = run_eqc(vqe_problem, tenants=50, num_epochs=1)
        metrics = history.metadata["scheduler"]
        assert metrics["policy"] == "fifo"
        assert metrics["events_processed"] > 0
        assert set(metrics["devices"]) == set(DEVICES)


class TestContentionDegradesThroughput:
    def test_epochs_per_hour_degrades_monotonically_with_tenant_load(
        self, vqe_problem
    ):
        """The tentpole property: background tenant storms slow EQC down."""
        rates = [
            run_eqc(vqe_problem, tenants).epochs_per_hour()
            for tenants in (0, 100, 1000)
        ]
        assert rates[0] > rates[1] > rates[2]
        # The 1000-tenant storm is not a marginal slowdown.
        assert rates[0] > 5 * rates[2]

    def test_contention_wait_shows_up_in_utilization(self, vqe_problem):
        quiet = run_eqc(vqe_problem, tenants=0, num_epochs=1)
        stormy = run_eqc(vqe_problem, tenants=1000, num_epochs=1)
        quiet_wait = sum(
            d["queued_seconds"] for d in quiet.metadata["utilization"].values()
        )
        stormy_wait = sum(
            d["queued_seconds"] for d in stormy.metadata["utilization"].values()
        )
        assert stormy_wait > quiet_wait

    def test_determinism_under_contention(self, vqe_problem, forget_arrival_recordings):
        a = run_eqc(vqe_problem, tenants=100)
        forget_arrival_recordings()  # b draws its tenant traffic afresh
        b = run_eqc(vqe_problem, tenants=100)
        assert a.losses.tolist() == b.losses.tolist()
        assert a.times_hours.tolist() == b.times_hours.tolist()


class TestPolicySweep:
    @pytest.mark.parametrize(
        "policy", ["fifo", "priority", "fair_share", "least_loaded", "calibration_aware"]
    )
    def test_every_policy_trains_to_completion(self, vqe_problem, policy):
        history = run_eqc(vqe_problem, tenants=20, policy=policy, num_epochs=1)
        assert len(history.records) == 1
        assert np.isfinite(history.final_loss())
