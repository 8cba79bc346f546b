"""The size of the public surface, pinned.

ROADMAP standard 2 asks for the least code and the fewest options; these
asserts turn growth of the execution protocol, the execution chain's entry
points, the scheduler's policies and submit calls, the top-level, backends
and simulator packages and the ensemble configuration into a deliberate
one-line edit made in review.
"""

import dataclasses
import inspect

import repro
import repro.backends
import repro.simulator
from repro.backends import ExecutionBackend, StatevectorBackend
from repro.baselines import IdealTrainer, SingleDeviceTrainer
from repro.cloud import CloudProvider
from repro.core.ensemble import EQCConfig
from repro.engine import ProgramCache, compile_circuit, execute_program
from repro.hamiltonian import EnergyEstimator
from repro.sched import POLICY_REGISTRY, CloudScheduler, SchedJob, WorkloadGenerator
from repro.sched.tournament import FULL_CONFIG
from repro.telemetry import telemetry_session
from repro.transpiler import select_layout, transpile


def test_execution_backend_has_one_method():
    public = {
        name
        for name, member in vars(ExecutionBackend).items()
        if callable(member) and not name.startswith("_")
    }
    assert public == {"run"}


def _parameters(function) -> list[str]:
    return list(inspect.signature(function).parameters)


def test_execution_chain_runs_one_configuration():
    """Compiling fuses and specializes diagonals, execution is one complex128
    pass, and layout is greedy: none of them takes a mode argument."""
    assert _parameters(compile_circuit) == ["circuit"]
    assert _parameters(execute_program) == ["program", "thetas", "batch", "blocks"]
    assert _parameters(EnergyEstimator.exact_energy) == ["self", "values"]
    assert _parameters(ProgramCache) == []
    assert _parameters(select_layout) == ["circuit", "topology"]
    assert _parameters(transpile) == ["circuit", "topology"]
    assert _parameters(StatevectorBackend) == ["name"]
    assert _parameters(telemetry_session) == []


def test_each_trainer_runs_one_backend():
    """Every device endpoint runs the noisy device path and the ideal
    baseline the statevector backend: no constructor swaps either."""
    assert _parameters(CloudProvider) == [
        "qpus", "queue_models", "seed", "shots", "scheduler", "fault_injector",
        "retry_policy",
    ]
    assert _parameters(SingleDeviceTrainer) == [
        "objective", "device_name", "shots", "learning_rate", "seed",
        "max_wall_hours", "queue_model",
    ]
    assert _parameters(IdealTrainer) == [
        "estimator", "shots", "learning_rate", "exact", "seed", "seconds_per_epoch",
    ]
    assert _parameters(StatevectorBackend.run) == ["self", "batch", "shots", "seed", "rng"]


def test_scheduler_serves_pinned_jobs_under_the_raced_policies():
    """The registry is the four policies the tournament races, every job
    names its device, and no job carries a priority."""
    assert sorted(POLICY_REGISTRY) == sorted(FULL_CONFIG.policies)
    assert _parameters(CloudScheduler.submit) == [
        "self", "device_name", "arrival", "tenant", "num_circuits",
        "service", "duration", "foreground",
    ]
    assert _parameters(CloudProvider.submit) == [
        "self", "device_name", "circuits", "footprint", "now", "shots",
    ]
    assert _parameters(WorkloadGenerator) == [
        "num_tenants", "jobs_per_tenant_hour", "circuit_range",
        "chunk_refresh_seconds", "max_chunk", "spread_load",
    ]
    assert [field.name for field in dataclasses.fields(SchedJob)] == [
        "job_id", "tenant", "device_name", "arrival_time", "num_circuits",
        "foreground", "service", "start_time", "finish_time", "service_seconds",
        "rejected", "deadline", "arrival_event",
    ]
    assert inspect.signature(CloudScheduler.submit).parameters[
        "device_name"
    ].default is inspect.Parameter.empty


def test_backends_package_exports():
    assert set(repro.backends.__all__) == {
        "ExecutionBackend",
        "StatevectorBackend",
        "NoisyBackend",
        "TranspileCache",
        "ProgramCache",
        "shared_program_cache",
        "normalize_batch",
        "measured_register",
        "template_structure_key",
    }
    assert len(repro.backends.__all__) == len(set(repro.backends.__all__))


def test_eqc_config_field_count():
    assert len(dataclasses.fields(EQCConfig)) == 18


def test_top_level_export_count():
    assert len(repro.__all__) == 85
    assert len(set(repro.__all__)) == len(repro.__all__)


def test_simulator_package_exports():
    assert set(repro.simulator.__all__) == {
        "Statevector",
        "simulate_statevector",
        "Counts",
        "ExecutionResult",
        "sample_distribution",
        "sample_distribution_batch",
        "sample_statevector",
        "sample_circuit_ideal",
        "apply_readout_error_batch",
        "MixingNoiseSpec",
        "NoiseRecord",
        "noisy_probabilities_batch",
    }
    assert len(repro.simulator.__all__) == len(set(repro.simulator.__all__))
