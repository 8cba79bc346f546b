"""End-to-end graceful-degradation tests for the fault-tolerant ensemble."""

import numpy as np
import pytest

from repro.core.ensemble import EQCConfig, EQCEnsemble
from repro.core.objective import EnergyObjective
from repro.core.weighting import BOUNDS_MODERATE
from repro.vqa.tasks import GradientTask
from repro.faults import (
    DeviceOutageError,
    FaultPlan,
    FleetExhaustedError,
    OutageWindow,
    RetryPolicy,
)

DEVICES = ("x2", "Belem", "Bogota")


def make_config(**kwargs):
    kwargs.setdefault("device_names", DEVICES)
    kwargs.setdefault("shots", 256)
    kwargs.setdefault("seed", 1)
    kwargs.setdefault("weight_bounds", BOUNDS_MODERATE)
    return EQCConfig(**kwargs)


def train(vqe_problem, config, epochs=2):
    ensemble = EQCEnsemble(EnergyObjective(vqe_problem.estimator), config)
    theta = vqe_problem.random_initial_parameters()
    return ensemble.train(theta, num_epochs=epochs)


def assert_histories_identical(reference, candidate):
    assert len(candidate.records) == len(reference.records)
    for expected, actual in zip(reference.records, candidate.records):
        assert actual.loss == expected.loss
        assert np.array_equal(actual.parameters, expected.parameters)
        assert actual.sim_time_hours == expected.sim_time_hours
        assert actual.weights == expected.weights


CHAOS_PLAN = FaultPlan(
    seed=11,
    transient_failure_rate=0.3,
    outages=(OutageWindow(device="Bogota", start=0.0, permanent=True),),
)


class TestConfigValidation:
    def test_device_faults_run_on_the_scheduler(self, vqe_problem):
        """The combination ``EQCConfig`` used to reject, running: the same
        plan degrades the fleet the same way on the kernel clock."""
        history = train(
            vqe_problem, make_config(fault_plan=CHAOS_PLAN, scheduling_policy="fifo")
        )
        assert len(history.records) == 2
        assert np.isfinite(history.losses).all()
        assert history.metadata["live_devices"] == ["x2", "Belem"]
        assert history.metadata["provider_faults"]["retries"] >= 1
        devices = history.metadata["scheduler"]["devices"]
        assert devices["Bogota"]["outage_windows"] == 1
        assert devices["Bogota"]["waiting"] == 0

    def test_retry_policy_requires_fault_plan(self):
        with pytest.raises(ValueError, match="retry_policy"):
            make_config(retry_policy=RetryPolicy())

    def test_dispatch_deadline_positive(self):
        with pytest.raises(ValueError):
            make_config(dispatch_deadline=0.0)

    def test_min_live_devices_bounds(self):
        with pytest.raises(ValueError):
            make_config(min_live_devices=0)
        with pytest.raises(ValueError):
            make_config(min_live_devices=len(DEVICES) + 1)

    def test_fault_tolerant_property(self):
        assert not make_config().fault_tolerant
        assert make_config(fault_plan=CHAOS_PLAN).fault_tolerant
        assert make_config(dispatch_deadline=3600.0).fault_tolerant
        assert not make_config(fault_plan=FaultPlan()).fault_tolerant


class TestBitExactWhenDisabled:
    def test_disabled_plan_matches_no_plan(self, vqe_problem):
        baseline = train(vqe_problem, make_config())
        gated = train(vqe_problem, make_config(fault_plan=FaultPlan()))
        assert_histories_identical(baseline, gated)
        # Disabled faults leave the metadata footprint untouched too.
        assert "fleet_events" not in gated.metadata
        assert "provider_faults" not in gated.metadata


class TestGracefulDegradation:
    @pytest.fixture(scope="class")
    def chaos_history(self, vqe_problem):
        return train(vqe_problem, make_config(fault_plan=CHAOS_PLAN))

    def test_training_completes_on_survivors(self, chaos_history):
        assert len(chaos_history.records) == 2
        assert np.isfinite(chaos_history.losses).all()
        assert chaos_history.metadata["live_devices"] == ["x2", "Belem"]

    def test_fleet_shrink_event_recorded(self, chaos_history):
        kinds = [event["kind"] for event in chaos_history.metadata["fleet_events"]]
        assert "job_failure" in kinds
        assert "fleet_shrink" in kinds
        shrink = next(
            event
            for event in chaos_history.metadata["fleet_events"]
            if event["kind"] == "fleet_shrink"
        )
        assert shrink["device"] == "Bogota"
        assert chaos_history.metadata["fault_stats"]["retired_devices"] == 1

    def test_weights_renormalized_over_survivors(self, chaos_history):
        final_weights = chaos_history.records[-1].weights
        assert set(final_weights) == {"client_x2", "client_Belem"}
        # PCorrect weights are normalized to mean 1 over the live fleet.
        assert sum(final_weights.values()) == pytest.approx(len(final_weights))

    def test_fault_metadata_published(self, chaos_history):
        assert chaos_history.metadata["fault_plan"]["transient_failure_rate"] == 0.3
        provider_faults = chaos_history.metadata["provider_faults"]
        assert provider_faults["job_failures"] >= 1
        assert provider_faults["transient_failures"] >= 1

    def test_chaos_run_deterministic(self, vqe_problem, chaos_history):
        repeat = train(vqe_problem, make_config(fault_plan=CHAOS_PLAN))
        assert_histories_identical(chaos_history, repeat)
        assert repeat.metadata["provider_faults"] == (
            chaos_history.metadata["provider_faults"]
        )
        assert repeat.metadata["fleet_events"] == (
            chaos_history.metadata["fleet_events"]
        )
        assert repeat.metadata["breakers"] == chaos_history.metadata["breakers"]

    def test_loss_stays_close_to_fault_free_run(self, vqe_problem, chaos_history):
        baseline = train(vqe_problem, make_config())
        gap = abs(chaos_history.records[-1].loss - baseline.records[-1].loss)
        assert gap < 0.5


class TestFleetExhaustion:
    def test_all_devices_dead_raises(self, vqe_problem):
        plan = FaultPlan(
            outages=tuple(
                OutageWindow(device=name, start=0.0, permanent=True)
                for name in DEVICES
            )
        )
        with pytest.raises(FleetExhaustedError):
            train(vqe_problem, make_config(fault_plan=plan))

    def test_min_live_devices_floor_enforced(self, vqe_problem):
        plan = FaultPlan(
            outages=(OutageWindow(device="Bogota", start=0.0, permanent=True),)
        )
        with pytest.raises(FleetExhaustedError):
            train(vqe_problem, make_config(fault_plan=plan, min_live_devices=3))


#: The chaos-under-contention scenario: a transient window on Belem and a
#: permanent one on Bogota, both opening mid-run, plus 15% transient failures.
CONTENDED_FLEET = ("x2", "Belem", "Bogota", "Quito")
CONTENDED_PLAN = FaultPlan(
    seed=7,
    transient_failure_rate=0.15,
    outages=(
        OutageWindow(device="Belem", start=600.0, duration=1800.0),
        OutageWindow(device="Bogota", start=900.0, permanent=True),
    ),
)
#: seed=3, shots=256, theta = linspace(0.1, 1.6, 16), 3 epochs, fifo policy
#: with 200 background tenants.
GOLDEN_CONTENDED_LOSSES_HEX = [
    "0x1.0849af2ce4398p+2",
    "0x1.95b6f9aef0e1ap+1",
    "0x1.0e04ce2a8c832p+1",
]
#: The same plan on the statistical clock, captured from the commit before
#: the submit paths were merged (its ``_submit_with_faults``).
GOLDEN_STATISTICAL_LOSSES_HEX = [
    "0x1.d97acb5a35d2cp+1",
    "0x1.7a48b7d5d4fcap+1",
    "0x1.c0427d46b49b5p+0",
]
GOLDEN_STATISTICAL_HOURS_HEX = [
    "0x1.3138ae3ff2755p-3",
    "0x1.8528b7ae86045p-2",
    "0x1.4ae7928d4a2e8p-1",
]


class TestChaosUnderContention:
    """A device failing under real multi-tenant contention (kernel x faults)."""

    @staticmethod
    def run(vqe_problem, **clock):
        config = make_config(
            device_names=CONTENDED_FLEET, seed=3, fault_plan=CONTENDED_PLAN, **clock
        )
        ensemble = EQCEnsemble(EnergyObjective(vqe_problem.estimator), config)
        return ensemble, ensemble.train(np.linspace(0.1, 1.6, 16), num_epochs=3)

    @pytest.fixture(scope="class")
    def contended(self, vqe_problem):
        return self.run(vqe_problem, scheduling_policy="fifo", background_tenants=200)

    def test_trains_to_completion_and_retires_exactly_bogota(self, contended):
        _, history = contended
        assert [float(loss).hex() for loss in history.losses] == (
            GOLDEN_CONTENDED_LOSSES_HEX
        )
        assert history.metadata["live_devices"] == ["x2", "Belem", "Quito"]
        assert history.metadata["fault_stats"]["retired_devices"] == 1
        shrinks = [
            event
            for event in history.metadata["fleet_events"]
            if event["kind"] == "fleet_shrink"
        ]
        assert [(e["device"], e["time"]) for e in shrinks] == [("Bogota", 900.0)]
        faults = history.metadata["provider_faults"]
        assert faults["retries"] > 0
        # Every failed job here is either the one Bogota lost or a job that
        # exhausted its retries (one more transient failure than retries).
        assert faults["transient_failures"] == faults["retries"] + (
            faults["job_failures"] - 1
        )

    def test_outage_windows_are_armed_in_the_kernel(self, contended):
        _, history = contended
        devices = history.metadata["scheduler"]["devices"]
        assert {name: d["outage_windows"] for name, d in devices.items()} == {
            "x2": 0, "Belem": 1, "Bogota": 1, "Quito": 0,
        }
        # Tenants really were competing for the fleet.
        assert history.metadata["scheduler"]["slo"]["jobs_completed"] > (
            history.total_jobs
        )

    def test_identical_across_runs(self, vqe_problem, contended):
        _, history = contended
        _, repeat = self.run(
            vqe_problem, scheduling_policy="fifo", background_tenants=200
        )
        assert_histories_identical(history, repeat)
        assert repeat.metadata["provider_faults"] == history.metadata["provider_faults"]
        assert repeat.metadata["fleet_events"] == history.metadata["fleet_events"]
        assert repeat.metadata["scheduler"] == history.metadata["scheduler"]

    def test_submit_to_dead_device_fails_in_bounded_kernel_events(self, vqe_problem):
        config = make_config(
            device_names=CONTENDED_FLEET,
            seed=3,
            fault_plan=CONTENDED_PLAN,
            scheduling_policy="fifo",
            background_tenants=200,
        )
        ensemble = EQCEnsemble(EnergyObjective(vqe_problem.estimator), config)
        kernel = ensemble.scheduler.kernel
        queue = ensemble.scheduler.queues["Bogota"]
        bogota = next(c for c in ensemble.clients if c.device_name == "Bogota")
        task = GradientTask(task_id=0, parameter_index=0)

        def submit(at):
            with pytest.raises(DeviceOutageError) as excinfo:
                bogota.execute_task(task, theta=np.zeros(16), submit_time=at)
            assert excinfo.value.permanent
            # Stranded tenant jobs stay queued; the provider's own is withdrawn.
            assert queue.in_service is None
            assert all(job.tenant != "eqc" for job in queue.waiting)
            assert queue._waiting_circuits == sum(j.num_circuits for j in queue.waiting)
            return excinfo.value

        # First detection: the kernel runs through the tenant traffic up to
        # the event that takes Bogota down (t=900) and stops there, the
        # job's own arrival (t=1000) withdrawn.
        assert submit(1000.0).detect_time == 1000.0
        assert kernel.now == 900.0
        assert 0 < kernel.events_processed < 5_000
        # Afterwards the provider fails fast: the kernel is not entered.
        events, pending = kernel.events_processed, kernel.pending
        assert submit(1200.0).detect_time == 1200.0
        assert (kernel.events_processed, kernel.pending) == (events, pending)

    def test_same_plan_on_the_statistical_clock_is_unchanged(self, vqe_problem):
        _, history = self.run(vqe_problem)
        assert [float(loss).hex() for loss in history.losses] == (
            GOLDEN_STATISTICAL_LOSSES_HEX
        )
        assert [float(r.sim_time_hours).hex() for r in history.records] == (
            GOLDEN_STATISTICAL_HOURS_HEX
        )
        assert history.metadata["live_devices"] == ["x2", "Belem", "Quito"]
        assert history.metadata["provider_faults"]["outage_deferrals"] == 1
