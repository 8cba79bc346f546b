"""Chaos benchmark — fault injection and graceful degradation.

Two resilience workloads, recorded in ``BENCH_faults.json`` at the
repository root so the fault-tolerance guarantees are tracked across PRs:

* **graceful degradation** — a 4-device VQE fleet trained under a chaos plan
  that kills one device permanently at t=0 and injects a >=10% transient
  job-failure rate everywhere else.  Training must complete on the
  survivors, retire exactly the dead device, and land within a pinned loss
  gap of the fault-free baseline.
* **determinism** — chaos is seeded: two runs under the same plan must agree
  bit for bit (losses, fault counters, fleet events, breaker summaries),
  and a *disabled* ``FaultPlan()`` must reproduce the fault-free history
  exactly (fault decisions draw from injector streams only, so the gate
  costs zero RNG).
"""

from __future__ import annotations

import numpy as np

from _common import bench_json_path, bench_main, write_bench_json

from repro.core import EQCConfig, EQCEnsemble
from repro.faults import FaultPlan, OutageWindow
from repro.hamiltonian.expectation import EnergyEstimator
from repro.vqa.vqe import heisenberg_vqe_problem

DEVICES = ("x2", "Belem", "Bogota", "Quito")
DEAD_DEVICE = "Bogota"
SHOTS = 256
SEED = 1
EPOCHS = 3
SMOKE_EPOCHS = 2
TRANSIENT_RATE = 0.15
BENCH_PATH = bench_json_path("faults")

#: Pinned CI floors.
MIN_TRANSIENT_RATE = 0.10
MAX_LOSS_GAP = 0.5

CHAOS_PLAN = FaultPlan(
    seed=11,
    transient_failure_rate=TRANSIENT_RATE,
    outages=(OutageWindow(device=DEAD_DEVICE, start=0.0, permanent=True),),
)


def _train_once(epochs: int, **config_kwargs):
    problem = heisenberg_vqe_problem()
    estimator = EnergyEstimator(problem.ansatz, problem.hamiltonian)
    config = EQCConfig(
        device_names=DEVICES, shots=SHOTS, seed=SEED, **config_kwargs
    )
    ensemble = EQCEnsemble.for_estimator(estimator, config)
    theta0 = np.zeros(estimator.num_parameters)
    return ensemble.train(theta0, num_epochs=epochs)


def _histories_bit_exact(reference, candidate) -> bool:
    if len(reference.records) != len(candidate.records):
        return False
    for expected, actual in zip(reference.records, candidate.records):
        if (
            actual.loss != expected.loss
            or not np.array_equal(actual.parameters, expected.parameters)
            or actual.sim_time_hours != expected.sim_time_hours
            or actual.weights != expected.weights
        ):
            return False
    return True


def run_degradation(epochs: int) -> dict:
    """Chaos fleet vs fault-free baseline: survivors must finish the job."""
    baseline = _train_once(epochs)
    chaos = _train_once(epochs, fault_plan=CHAOS_PLAN)
    loss_gap = abs(chaos.records[-1].loss - baseline.records[-1].loss)
    return {
        "config": {
            "devices": list(DEVICES),
            "dead_device": DEAD_DEVICE,
            "transient_failure_rate": TRANSIENT_RATE,
            "shots": SHOTS,
            "epochs": epochs,
        },
        "baseline_final_loss": float(baseline.records[-1].loss),
        "chaos_final_loss": float(chaos.records[-1].loss),
        "loss_gap": float(loss_gap),
        "live_devices": chaos.metadata["live_devices"],
        "fault_stats": chaos.metadata["fault_stats"],
        "provider_faults": chaos.metadata["provider_faults"],
        "fleet_events": chaos.metadata["fleet_events"],
        "epochs_completed": len(chaos.records),
    }


def run_determinism(epochs: int) -> dict:
    """Seeded chaos repeats exactly; a disabled plan costs zero RNG."""
    first = _train_once(epochs, fault_plan=CHAOS_PLAN)
    second = _train_once(epochs, fault_plan=CHAOS_PLAN)
    chaos_deterministic = (
        _histories_bit_exact(first, second)
        and first.metadata["provider_faults"] == second.metadata["provider_faults"]
        and first.metadata["fleet_events"] == second.metadata["fleet_events"]
        and first.metadata["breakers"] == second.metadata["breakers"]
    )
    plain = _train_once(epochs)
    gated = _train_once(epochs, fault_plan=FaultPlan())
    return {
        "chaos_deterministic": chaos_deterministic,
        "disabled_plan_bit_exact": _histories_bit_exact(plain, gated),
    }


def run_faults_benchmark(epochs: int = EPOCHS) -> dict:
    return {
        "benchmark": "faults",
        "degradation": run_degradation(epochs),
        "determinism": run_determinism(epochs),
    }


def check_and_record(result: dict) -> None:
    """Persist the result and enforce the acceptance criteria.

    Shared by the pytest entry point and the CLI so CI fails loudly on a
    resilience regression no matter how it runs this file.
    """
    write_bench_json(BENCH_PATH, result)
    degradation = result["degradation"]
    determinism = result["determinism"]

    assert degradation["epochs_completed"] == degradation["config"]["epochs"], (
        "chaos training did not complete every epoch"
    )
    assert degradation["config"]["transient_failure_rate"] >= MIN_TRANSIENT_RATE, (
        "the chaos plan fell below the 10% transient-failure floor"
    )
    survivors = [d for d in DEVICES if d != DEAD_DEVICE]
    assert degradation["live_devices"] == survivors, (
        f"expected the fleet to shrink to {survivors}, "
        f"got {degradation['live_devices']}"
    )
    assert degradation["fault_stats"]["retired_devices"] == 1
    assert degradation["provider_faults"]["transient_failures"] >= 1, (
        "the chaos run never observed a transient failure"
    )
    assert degradation["loss_gap"] <= MAX_LOSS_GAP, (
        f"degraded training diverged from the fault-free baseline: "
        f"loss gap {degradation['loss_gap']:.4f} > {MAX_LOSS_GAP}"
    )
    assert determinism["chaos_deterministic"], (
        "two chaos runs under the same plan seed diverged"
    )
    assert determinism["disabled_plan_bit_exact"], (
        "a disabled FaultPlan shifted the fault-free history"
    )


def _report(result: dict) -> None:
    degradation = result["degradation"]
    determinism = result["determinism"]
    stats = degradation["fault_stats"]
    faults = degradation["provider_faults"]
    print(
        f"\n=== Faults: graceful degradation "
        f"({len(DEVICES)} devices, {DEAD_DEVICE} dead at t=0, "
        f"{degradation['config']['transient_failure_rate']:.0%} transient) ==="
    )
    print(
        f"baseline loss {degradation['baseline_final_loss']:.6f} | "
        f"chaos loss {degradation['chaos_final_loss']:.6f} | "
        f"gap {degradation['loss_gap']:.6f} (max {MAX_LOSS_GAP}) | "
        f"survivors {degradation['live_devices']}"
    )
    print(
        f"transient failures {faults['transient_failures']} | "
        f"retries {faults['retries']} | "
        f"job failures {faults['job_failures']} | "
        f"retired {stats['retired_devices']}"
    )
    print("=== Faults: determinism ===")
    print(
        f"chaos repeatable: {determinism['chaos_deterministic']} | "
        f"disabled plan bit-exact: {determinism['disabled_plan_bit_exact']}"
    )


def test_fault_resilience():
    result = run_faults_benchmark()
    _report(result)
    check_and_record(result)


if __name__ == "__main__":
    bench_main(
        lambda smoke: run_faults_benchmark(SMOKE_EPOCHS if smoke else EPOCHS),
        check_and_record,
        report=_report,
    )
