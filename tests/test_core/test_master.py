"""Tests for the EQC master node (Algorithm 1)."""

import numpy as np
import pytest

from repro.cloud.provider import CloudProvider
from repro.core.client import EQCClientNode
from repro.core.master import EQCMasterNode, _InFlight
from repro.core.objective import EnergyObjective
from repro.core.weighting import BOUNDS_MODERATE, WeightingConfig
from repro.devices.catalog import build_fleet
from repro.vqa.optimizer import AsgdRule
from repro.vqa.tasks import GradientTask, vqe_task_cycle


def build_master(problem, device_names=("x2", "Belem", "Bogota"), bounds=BOUNDS_MODERATE,
                 shots=512, seed=0, label="EQC-test", **options):
    objective = EnergyObjective(problem.estimator)
    fleet = build_fleet(device_names)
    provider = CloudProvider(fleet, seed=seed, shots=shots)
    clients = [EQCClientNode(objective, qpu, provider, shots=shots) for qpu in fleet]
    return EQCMasterNode(
        objective=objective,
        clients=clients,
        task_queue=vqe_task_cycle(problem.num_parameters),
        rule=AsgdRule(learning_rate=0.1),
        weighting=WeightingConfig(bounds=bounds),
        initial_parameters=problem.random_initial_parameters(seed=seed),
        label=label,
        **options,
    )


class TestMasterTraining:
    def test_history_structure(self, vqe_problem):
        master = build_master(vqe_problem)
        history = master.train(num_epochs=3)
        assert len(history) == 3
        assert list(history.epochs) == [1, 2, 3]
        assert history.total_updates == 3 * 16
        assert history.device_names == ("x2", "Belem", "Bogota")
        assert history.metadata["weighting"].startswith("weights")

    def test_loss_decreases_from_start(self, vqe_problem):
        master = build_master(vqe_problem)
        initial_loss = vqe_problem.energy(master.state.snapshot())
        history = master.train(num_epochs=5)
        assert history.losses[-1] < initial_loss

    def test_record_every(self, vqe_problem):
        master = build_master(vqe_problem)
        history = master.train(num_epochs=4, record_every=2)
        assert list(history.epochs) == [2, 4]
        # throughput accounting uses the true epoch index, not the record count
        assert history.epochs_per_hour() == pytest.approx(4 / history.total_hours(), rel=1e-6)

    def test_weights_cover_all_clients(self, vqe_problem):
        master = build_master(vqe_problem)
        master.train(num_epochs=2)
        weights = master.current_weights
        assert set(weights.keys()) == {"client_x2", "client_Belem", "client_Bogota"}
        assert all(0.5 - 1e-9 <= w <= 1.5 + 1e-9 for w in weights.values())

    def test_unweighted_configuration(self, vqe_problem):
        master = build_master(vqe_problem, bounds=None)
        master.train(num_epochs=2)
        assert all(w == 1.0 for w in master.current_weights.values())

    def test_asynchrony_produces_staleness(self, vqe_problem):
        master = build_master(vqe_problem)
        history = master.train(num_epochs=3)
        assert history.metadata["max_staleness"] >= 1

    def test_telemetry_counts(self, vqe_problem):
        master = build_master(vqe_problem)
        master.train(num_epochs=2)
        telemetry = master.telemetry
        assert telemetry.updates_applied == 32
        assert telemetry.jobs_dispatched >= 32
        assert telemetry.circuits_executed == telemetry.jobs_dispatched * 6

    def test_epoch_time_monotone(self, vqe_problem):
        history = build_master(vqe_problem).train(num_epochs=4)
        times = history.times_hours
        assert all(times[i] < times[i + 1] for i in range(len(times) - 1))

    def test_invalid_epochs_rejected(self, vqe_problem):
        with pytest.raises(ValueError):
            build_master(vqe_problem).train(num_epochs=0)

    def test_duplicate_client_names_rejected(self, vqe_problem):
        objective = EnergyObjective(vqe_problem.estimator)
        fleet = build_fleet(["Belem"])
        provider = CloudProvider(fleet, seed=0)
        client = EQCClientNode(objective, fleet[0], provider)
        with pytest.raises(ValueError):
            EQCMasterNode(
                objective=objective,
                clients=[client, client],
                task_queue=vqe_task_cycle(16),
                rule=AsgdRule(0.1),
                weighting=WeightingConfig(),
                initial_parameters=np.zeros(16),
            )

    def test_no_clients_rejected(self, vqe_problem):
        with pytest.raises(ValueError):
            EQCMasterNode(
                objective=EnergyObjective(vqe_problem.estimator),
                clients=[],
                task_queue=vqe_task_cycle(16),
                rule=AsgdRule(0.1),
                weighting=WeightingConfig(),
                initial_parameters=np.zeros(16),
            )

    def test_target_updates_records_final_partial_epoch(self, vqe_problem):
        """A budget that is not a multiple of cycle_length keeps its tail:
        the trailing updates land in a final partial EpochRecord instead of
        being silently dropped from the history."""
        master = build_master(vqe_problem)
        target = master.cycle_length * 2 + 5
        history = master.train(target_updates=target)
        assert master.telemetry.updates_applied == target
        assert history.total_updates == target
        assert list(history.epochs) == [1, 2, 3]
        assert history.metadata["final_epoch_partial_updates"] == 5
        # The partial record reflects the post-tail parameters.
        assert history.records[-1].parameters == master.state.snapshot()
        # Throughput counts the tail as a fraction, not a full epoch.
        assert history.final_epoch_fraction == pytest.approx(5 / 16)
        expected_rate = (2 + 5 / 16) / history.total_hours()
        assert history.epochs_per_hour() == pytest.approx(expected_rate)

    def test_target_updates_multiple_of_cycle_has_no_partial_record(self, vqe_problem):
        master = build_master(vqe_problem)
        history = master.train(target_updates=master.cycle_length * 2)
        assert list(history.epochs) == [1, 2]
        assert "final_epoch_partial_updates" not in history.metadata

    def test_partial_tail_smaller_than_one_epoch(self, vqe_problem):
        master = build_master(vqe_problem)
        history = master.train(target_updates=3)
        assert list(history.epochs) == [1]
        assert history.metadata["final_epoch_partial_updates"] == 3
        assert history.total_updates == 3

    def test_invalid_target_updates_rejected(self, vqe_problem):
        with pytest.raises(ValueError):
            build_master(vqe_problem).train(target_updates=0)
        with pytest.raises(ValueError):
            build_master(vqe_problem).train()

    def test_deterministic_given_seed(self, vqe_problem):
        a = build_master(vqe_problem, seed=5).train(num_epochs=2)
        b = build_master(vqe_problem, seed=5).train(num_epochs=2)
        assert np.allclose(a.losses, b.losses)

    def test_different_seeds_differ(self, vqe_problem):
        a = build_master(vqe_problem, seed=1).train(num_epochs=2)
        b = build_master(vqe_problem, seed=2).train(num_epochs=2)
        assert not np.allclose(a.losses, b.losses)


#: ``build_master(vqe_problem).train(num_epochs=3)`` captured before the
#: master had a simulated-time stop: losses and epoch times as float hex.
GOLDEN_UNSTOPPED_LOSSES_HEX = [
    "0x1.f24679eb16382p+2",
    "0x1.e6b12c41a7061p+2",
    "0x1.d55dd0665d279p+2",
]
GOLDEN_UNSTOPPED_HOURS_HEX = [
    "0x1.7cf07809e04dcp-3",
    "0x1.6e8a488995440p-2",
    "0x1.0c0300720b1e9p-1",
]


class TestMaxSimHours:
    """The simulated-time stop: at the first epoch boundary past the budget
    the master records that epoch and hands out no further task."""

    @pytest.mark.parametrize("max_sim_hours", [None, 1e9])
    def test_unreached_budget_leaves_the_history_unchanged(self, vqe_problem, max_sim_hours):
        history = build_master(vqe_problem).train(num_epochs=3, max_sim_hours=max_sim_hours)
        assert [float(l).hex() for l in history.losses] == GOLDEN_UNSTOPPED_LOSSES_HEX
        assert [
            float(r.sim_time_hours).hex() for r in history.records
        ] == GOLDEN_UNSTOPPED_HOURS_HEX
        assert not history.terminated_early
        assert history.termination_reason == ""

    @pytest.mark.parametrize("record_every, recorded", [(1, [1, 2]), (3, [2])])
    def test_stops_at_the_first_epoch_boundary_past_the_budget(
        self, vqe_problem, record_every, recorded
    ):
        full = build_master(vqe_problem).train(num_epochs=4)
        budget = 0.5 * sum(full.times_hours[:2])
        master = build_master(vqe_problem)
        history = master.train(num_epochs=4, record_every=record_every, max_sim_hours=budget)
        # The stopping epoch (2) is recorded even off the record cadence.
        assert history.records == [full.records[epoch - 1] for epoch in recorded]
        assert history.epochs_per_hour() == pytest.approx(2 / full.times_hours[1])
        assert history.terminated_early
        assert history.termination_reason == (
            f"exceeded {budget:.0f} simulated hours after 2 epochs"
        )
        assert history.total_updates == 2 * master.cycle_length
        assert "final_epoch_partial_updates" not in history.metadata
        # The other clients' jobs were in flight at the stop: dispatched, never
        # applied, and their shots drawn all the same.
        in_flight = master._dispatched
        assert history.total_jobs - history.total_updates == len(in_flight) == 2
        assert not any(d.cloud_job.parked for d in in_flight.values())


#: A deadline inside the 4-qubit VQE's spread of job turnarounds (roughly
#: 80-210 s on this fleet), so some jobs are cut and most are not.
STRAGGLER_DEADLINE = 150.0


class TestDispatchRegistry:
    """The master holds each dispatched task by job id until it collects it."""

    def test_dispatches_register_consecutive_job_ids(self, vqe_problem):
        master = build_master(vqe_problem)
        entries = [
            master._dispatch_task(client, GradientTask(i, i), 0.0, i)
            for i, client in enumerate(master.clients)
        ]
        assert [entry.job_id for entry in entries] == [0, 1, 2]
        assert sorted(master._dispatched) == [0, 1, 2]
        assert all(entry.kind == "job" and entry.outcome is None for entry in entries)
        assert master.telemetry.jobs_dispatched == 3

    def test_register_continues_the_dispatch_ids(self, vqe_problem):
        master = build_master(vqe_problem)
        client = master.clients[0]
        entry = master._dispatch_task(client, GradientTask(0, 0), 0.0, 1)
        extra = client.dispatch_task(GradientTask(1, 1), master.state.snapshot(), 0.0)
        job_id = master.register(extra)
        assert job_id == entry.job_id + 1
        assert master._dispatched[job_id] is extra

    def test_gather_collects_once_and_forgets_the_task(self, vqe_problem):
        master = build_master(vqe_problem)
        entry = master._dispatch_task(master.clients[1], GradientTask(0, 3), 0.0, 1)
        outcome = master.gather(entry)
        assert entry.job_id not in master._dispatched
        # A second gather reads the stored outcome; the task is not collected twice.
        assert master.gather(entry) is outcome
        assert outcome.task.parameter_index == 3
        assert outcome.finish_time == entry.finish_time

    def test_gathered_outcome_equals_the_clients_own_execute(self, vqe_problem):
        master = build_master(vqe_problem)
        entry = master._dispatch_task(master.clients[2], GradientTask(0, 5), 0.0, 1)
        # Same seed, same fleet: the reference provider replays the same streams.
        reference = build_master(vqe_problem)
        outcome = reference.clients[2].execute_task(
            GradientTask(0, 5), reference.state.snapshot(), 0.0, reference.state.version
        )
        assert master.gather(entry) == outcome

    def test_parked_task_is_held_until_its_counts_are_drawn(self, vqe_problem):
        master = build_master(vqe_problem)
        client = master.clients[0]
        entry = master._dispatch_task(client, GradientTask(0, 0), 0.0, 1)
        dispatched = master._dispatched[entry.job_id]
        assert dispatched.cloud_job.parked
        assert master.parked_task(entry) is dispatched
        client.provider.resolve()
        assert master.parked_task(entry) is None
        # A job entry whose counts are in is collected on the spot.
        assert entry.outcome is not None
        assert entry.job_id not in master._dispatched

    def test_parked_task_of_an_event_without_a_job_is_none(self, vqe_problem):
        master = build_master(vqe_problem)
        probe = _InFlight(
            10.0, 1, outcome=None, client=master.clients[0], kind="probe",
            task=GradientTask(0, 0),
        )
        assert master.parked_task(probe) is None

    def test_every_dispatch_goes_to_the_client(self, vqe_problem, monkeypatch):
        master = build_master(vqe_problem)
        calls = []
        for client in master.clients:
            def spy(*args, _client=client, _dispatch=client.dispatch_task, **kwargs):
                calls.append(_client.device_name)
                return _dispatch(*args, **kwargs)

            monkeypatch.setattr(client, "dispatch_task", spy)
        master.train(num_epochs=1)
        assert len(calls) == master.telemetry.jobs_dispatched
        assert set(calls) == {"x2", "Belem", "Bogota"}

    def test_circuits_executed_sums_the_registered_jobs(self, vqe_problem, monkeypatch):
        master = build_master(vqe_problem)
        registered = []
        register = master.register
        monkeypatch.setattr(
            master, "register", lambda dispatched: registered.append(dispatched) or register(dispatched)
        )
        master.train(num_epochs=1)
        assert len(registered) == master.telemetry.jobs_dispatched
        assert sum(d.cloud_job.num_circuits for d in registered) == (
            master.telemetry.circuits_executed
        )

    @pytest.mark.parametrize("deadline", [None, STRAGGLER_DEADLINE])
    def test_every_job_is_applied_cut_or_still_in_flight(self, vqe_problem, deadline):
        master = build_master(vqe_problem, dispatch_deadline=deadline)
        master.train(num_epochs=2)
        telemetry, cut = master.telemetry, master._fault_stats["stragglers_cut"]
        assert next(master._job_ids) == telemetry.jobs_dispatched
        assert telemetry.jobs_dispatched == (
            telemetry.updates_applied + cut + len(master._dispatched)
        )
        assert (cut > 0) == (deadline is not None)
        # The jobs in flight at the budget had their shots drawn all the same.
        assert master._dispatched
        assert not any(d.cloud_job.parked for d in master._dispatched.values())

    def test_a_cut_straggler_is_drained_and_its_task_redispatched(self, vqe_problem):
        master = build_master(vqe_problem, dispatch_deadline=STRAGGLER_DEADLINE)
        client = master.clients[0]
        entry = None
        for index in range(master.cycle_length):
            candidate = master._dispatch_task(client, GradientTask(index, index), 0.0, index)
            if candidate.kind == "straggler":
                entry = candidate
                break
            master.gather(candidate)
        assert entry is not None
        assert entry.finish_time == STRAGGLER_DEADLINE
        pending = []
        master._absorb_fault(entry, entry.finish_time, 100, pending)
        assert entry.job_id not in master._dispatched
        assert master._fault_stats["stragglers_cut"] == 1
        (retry,) = pending
        assert master._dispatched[retry.job_id].task is entry.task
