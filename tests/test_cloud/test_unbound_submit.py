"""Differential tests: an unbound job vs the same job as bound circuits.

A gradient job travels from the objective to the device as a
``ParameterSweep`` (templates + parameter-point matrix).  Submitting that
sweep and submitting its bound circuits must be indistinguishable from the
outside on every submit path — same counts, durations, result metadata,
finish time, and endpoint RNG state — and an EQC training run must not bind
a single circuit outside the per-epoch exact loss.
"""

import numpy as np
import pytest

from repro import EQCConfig, EQCEnsemble
from repro.circuit import QuantumCircuit
from repro.cloud.provider import CloudProvider
from repro.core.objective import EnergyObjective, QnnObjective
from repro.devices.catalog import build_qpu
from repro.faults import FaultError, FaultInjector, FaultPlan, OutageWindow
from repro.sched import CloudScheduler, WorkloadGenerator
from repro.transpiler import transpile
from repro.vqa.qnn import QNNProblem, make_synthetic_dataset
from repro.vqa.tasks import GradientTask, qnn_task_cycle

DEVICES = ("Belem", "Bogota")


def _statistical():
    return CloudProvider([build_qpu(d) for d in DEVICES], seed=3, shots=256)


def _fault_injected():
    plan = FaultPlan(
        seed=5,
        transient_failure_rate=0.3,
        result_timeout_rate=0.25,
        result_delay_seconds=45.0,
    )
    return CloudProvider(
        [build_qpu(d) for d in DEVICES],
        seed=3,
        shots=256,
        fault_injector=FaultInjector(plan, seed=3),
    )


def _scheduled():
    scheduler = CloudScheduler(
        policy="deadline",
        workload=WorkloadGenerator(num_tenants=300, jobs_per_tenant_hour=1.0),
        seed=3,
    )
    return CloudProvider(
        [build_qpu(d) for d in DEVICES], seed=3, shots=256, scheduler=scheduler
    )


def _scheduled_fault_injected():
    """Kernel x faults: retries and delays from the submit loop, the outage
    window (it holds the Belem queue shut mid-run) from the kernel."""
    plan = FaultPlan(
        seed=5,
        transient_failure_rate=0.3,
        result_timeout_rate=0.25,
        result_delay_seconds=45.0,
        outages=(OutageWindow(device="Belem", start=1000.0, duration=400.0),),
    )
    scheduler = CloudScheduler(
        policy="deadline",
        workload=WorkloadGenerator(num_tenants=300, jobs_per_tenant_hour=1.0),
        seed=3,
    )
    provider = CloudProvider(
        [build_qpu(d) for d in DEVICES],
        seed=3,
        shots=256,
        scheduler=scheduler,
        fault_injector=FaultInjector(plan, seed=3),
    )
    scheduler.apply_fault_plan(plan)
    return provider


def _submit(provider, device, circuits, footprint, now):
    """The job, or the fault it died of (both must match across forms)."""
    try:
        return provider.submit(device, circuits, footprint, now=now)
    except FaultError as error:
        return (type(error), error.detect_time)


def _job_view(job):
    if isinstance(job, tuple):
        return job
    return {
        "start": job.start_time,
        "finish": job.finish_time,
        "attempts": job.attempts,
        "status": job.status,
        "results": [
            (
                list(r.counts.items()),
                r.counts.shots,
                r.duration_seconds,
                r.queue_seconds,
                r.metadata,
            )
            for r in job.results
        ],
    }


def _endpoint_view(provider):
    return {
        name: (
            provider._endpoint(name).rng.bit_generator.state,
            provider._endpoint(name).free_at,
            vars(provider._endpoint(name).record),
        )
        for name in provider.device_names
    }


@pytest.mark.parametrize(
    "make_provider",
    [_statistical, _fault_injected, _scheduled, _scheduled_fault_injected],
    ids=["statistical", "fault_injected", "scheduled", "scheduled_fault_injected"],
)
def test_sweep_and_bound_circuits_are_indistinguishable(vqe_problem, make_provider):
    objective = EnergyObjective(vqe_problem.estimator)
    footprint = transpile(
        vqe_problem.estimator.template_circuits()[0], build_qpu("Belem").topology
    ).footprint
    unbound, bound = make_provider(), make_provider()
    theta = np.linspace(-0.7, 0.9, objective.num_parameters)
    now = 0.0
    jobs_run = 0
    for index in range(12):
        task = GradientTask(task_id=index, parameter_index=index)
        batch = objective.build_job(task, theta + 0.05 * index).batch
        device = DEVICES[index % len(DEVICES)]
        a = _submit(unbound, device, batch, footprint, now)
        b = _submit(bound, device, batch.bound_circuits(), footprint, now)
        assert _job_view(a) == _job_view(b)
        if not isinstance(a, tuple):
            jobs_run += 1
            assert all(r.counts.hits is not None for r in a.results)
            now = a.finish_time if index % 3 else now + 30.0
    assert jobs_run >= 6
    assert _endpoint_view(unbound) == _endpoint_view(bound)
    assert unbound.fault_counters == bound.fault_counters


def test_three_point_qnn_job_matches_bound_circuits():
    problem = QNNProblem("qnn", make_synthetic_dataset(4, seed=3), num_qubits=4)
    objective = QnnObjective(problem)
    unbound, bound = _statistical(), _statistical()
    theta = problem.random_initial_parameters(seed=4)
    for index in range(4):
        task = GradientTask(task_id=index, parameter_index=index, data_index=index)
        job = objective.build_job(task, theta)
        footprint = transpile(job.templates[0], build_qpu("Belem").topology).footprint
        a = unbound.submit("Belem", job.batch, footprint, now=100.0 * index)
        b = bound.submit("Belem", job.circuits, footprint, now=100.0 * index)
        assert _job_view(a) == _job_view(b)
        counts = [r.counts for r in a.results]
        plain = [dict(r.counts) for r in b.results]
        assert (
            objective.gradient_from_counts(task, counts).hex()
            == objective.gradient_from_counts(task, plain).hex()
        )
    assert _endpoint_view(unbound) == _endpoint_view(bound)


class _BindCounter:
    def __init__(self, monkeypatch):
        self.calls = 0
        original = QuantumCircuit.bind_parameters

        def bind_parameters(circuit, values):
            self.calls += 1
            return original(circuit, values)

        monkeypatch.setattr(QuantumCircuit, "bind_parameters", bind_parameters)


def test_energy_training_binds_nothing(vqe_problem, monkeypatch):
    objective = EnergyObjective(vqe_problem.estimator)
    config = EQCConfig(device_names=("x2", "Belem", "Bogota"), shots=128, seed=2)
    ensemble = EQCEnsemble(objective, config)
    monkeypatch.setattr(objective, "exact_loss", lambda theta: 0.0)
    binds = _BindCounter(monkeypatch)
    history = ensemble.train(np.linspace(0.1, 1.6, 16), num_epochs=2)
    assert history.total_updates == 32
    assert binds.calls == 0


def test_qnn_training_binds_nothing(monkeypatch):
    problem = QNNProblem("qnn", make_synthetic_dataset(3, seed=9), num_qubits=4)
    objective = QnnObjective(problem)
    queue = qnn_task_cycle(problem.num_parameters, len(problem.dataset))
    config = EQCConfig(device_names=("Belem", "Bogota"), shots=128, seed=9)
    ensemble = EQCEnsemble(objective, config)
    monkeypatch.setattr(objective, "exact_loss", lambda theta: 0.0)
    binds = _BindCounter(monkeypatch)
    history = ensemble.train(
        problem.random_initial_parameters(seed=9), num_epochs=2, task_queue=queue
    )
    assert history.total_updates == 2 * queue.cycle_length
    assert binds.calls == 0
