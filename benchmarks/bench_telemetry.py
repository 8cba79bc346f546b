"""Telemetry benchmark — disabled-mode overhead floor and trace validity.

Two properties gate the ``telemetry`` subsystem:

* **disabled overhead** — with collection off, every instrumentation site
  costs one branch on the outermost hot call.  An engine micro workload
  (a 5-qubit hardware-efficient-ansatz parameter-shift sweep) run
  through the instrumented :func:`~repro.engine.executor.execute_program`
  must stay within 2% of an uninstrumented replica of the same code path.
* **enabled-mode validity** — an instrumented mini-experiment (EQC training
  under background tenant contention) must produce a Chrome trace that
  passes :func:`~repro.telemetry.validate_chrome_trace`, covering engine,
  scheduler, and EQC spans, and must leave the seeded training history
  bit-exact against a telemetry-off run.

Results land in ``BENCH_telemetry.json`` at the repository root.
``--smoke`` runs a reduced-but-complete version for CI.
"""

from __future__ import annotations

import time

import numpy as np

from _common import bench_json_path, bench_main, write_bench_json

from repro import EQCConfig, EQCEnsemble, EnergyObjective
from repro.circuit import hardware_efficient_ansatz
from repro.engine import compile_circuit, execute_program
from repro.engine.executor import _execute_block
from repro.telemetry import (
    TELEMETRY,
    run_report,
    telemetry_session,
    validate_chrome_trace,
)
from repro.vqa import heisenberg_vqe_problem
from repro.vqa.gradient import shifted_theta_matrix

NUM_QUBITS = 5
NUM_PARAMETERS = 8
CALLS_PER_SAMPLE = 60
SAMPLES = 15
SAMPLES_SMOKE = 7
MAX_DISABLED_OVERHEAD = 1.02
REQUIRED_CATEGORIES = {"engine", "sched", "eqc"}
BENCH_PATH = bench_json_path("telemetry")


def _baseline_execute(program, thetas, blocks=None) -> np.ndarray:
    """Pre-telemetry ``execute_program``, branch-for-branch.

    Identical input validation and dispatch into the shared
    :func:`_execute_block` kernel, with the telemetry enabled-check removed —
    the only difference the overhead ratio is allowed to measure.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    if thetas.shape[1] != program.num_slots:
        raise ValueError("slot count mismatch")
    size = thetas.shape[0]
    if size % program.stride:
        raise ValueError("rows are not whole points")
    if blocks is not None and (sum(blocks) != size or any(b % program.stride for b in blocks)):
        raise ValueError("blocks are not whole points")
    return _execute_block(program, thetas, blocks)


def measure_disabled_overhead(samples: int) -> dict:
    """Best-of-N timing of instrumented-but-disabled vs uninstrumented.

    Samples for the two variants are interleaved so slow machine moments
    penalize both equally; each sample times ``CALLS_PER_SAMPLE`` executions
    of the full micro sweep.
    """
    template = hardware_efficient_ansatz(NUM_QUBITS)
    program = compile_circuit(template.without_measurements())
    rng = np.random.default_rng(20260807)
    theta = rng.uniform(-np.pi, np.pi, len(template.ordered_parameters()))
    thetas = shifted_theta_matrix(theta, list(range(NUM_PARAMETERS)))

    was_enabled = TELEMETRY.enabled
    TELEMETRY.disable()
    try:
        # Parity guard: the replica must compute the same states.
        delta = float(
            np.max(np.abs(execute_program(program, thetas) - _baseline_execute(program, thetas)))
        )
        best_baseline = float("inf")
        best_disabled = float("inf")
        for _ in range(samples):
            start = time.perf_counter()
            for _ in range(CALLS_PER_SAMPLE):
                _baseline_execute(program, thetas)
            best_baseline = min(best_baseline, time.perf_counter() - start)
            start = time.perf_counter()
            for _ in range(CALLS_PER_SAMPLE):
                execute_program(program, thetas)
            best_disabled = min(best_disabled, time.perf_counter() - start)
        with telemetry_session():
            best_enabled = float("inf")
            for _ in range(max(2, samples // 3)):
                start = time.perf_counter()
                for _ in range(CALLS_PER_SAMPLE):
                    execute_program(program, thetas)
                best_enabled = min(best_enabled, time.perf_counter() - start)
    finally:
        TELEMETRY.enabled = was_enabled

    return {
        "calls_per_sample": CALLS_PER_SAMPLE,
        "samples": samples,
        "parity_max_delta": delta,
        "baseline_seconds": best_baseline,
        "disabled_seconds": best_disabled,
        "enabled_seconds": best_enabled,
        "disabled_overhead_ratio": best_disabled / best_baseline,
        "enabled_overhead_ratio": best_enabled / best_baseline,
    }


def run_instrumented_experiment(num_epochs: int, shots: int) -> dict:
    """One EQC run under contention with telemetry on; validates the trace."""
    problem = heisenberg_vqe_problem()
    theta = np.linspace(0.1, 1.6, problem.num_parameters)

    def train() -> float:
        config = EQCConfig(
            device_names=("x2", "Belem"),
            shots=shots,
            seed=11,
            scheduling_policy="fifo",
            background_tenants=25,
        )
        ensemble = EQCEnsemble(EnergyObjective(problem.estimator), config)
        history = ensemble.train(theta, num_epochs=num_epochs)
        return float(history.records[-1].loss)

    loss_off = train()
    with telemetry_session():
        loss_on = train()
        report = run_report()
        trace = TELEMETRY.tracer.to_chrome()
    summary = validate_chrome_trace(trace)
    return {
        "num_epochs": num_epochs,
        "shots": shots,
        "loss_telemetry_off": loss_off,
        "loss_telemetry_on": loss_on,
        "bit_exact": loss_off == loss_on,
        "trace_events": summary["events"],
        "trace_tracks": summary["tracks"],
        "trace_categories": sorted(summary["categories"]),
        "counters": report["counters"],
        "dropped_trace_events": report["dropped_trace_events"],
    }


def run_telemetry_benchmark(smoke: bool = False) -> dict:
    samples = SAMPLES_SMOKE if smoke else SAMPLES
    return {
        "benchmark": "telemetry",
        "config": {"smoke": smoke, "qubits": NUM_QUBITS, "sweep_points": 2 * NUM_PARAMETERS},
        "overhead": measure_disabled_overhead(samples),
        "experiment": run_instrumented_experiment(num_epochs=1, shots=128),
    }


def check_and_record(result: dict) -> None:
    """Persist the result and enforce the acceptance criteria."""
    write_bench_json(BENCH_PATH, result)
    overhead = result["overhead"]
    assert overhead["parity_max_delta"] == 0.0, (
        f"instrumented engine diverged from the uninstrumented replica: "
        f"{overhead['parity_max_delta']}"
    )
    ratio = overhead["disabled_overhead_ratio"]
    assert ratio < MAX_DISABLED_OVERHEAD, (
        f"disabled-mode telemetry overhead exceeds "
        f"{(MAX_DISABLED_OVERHEAD - 1) * 100:.0f}%: ratio {ratio:.4f}"
    )
    experiment = result["experiment"]
    assert experiment["bit_exact"], (
        "telemetry-on training history diverged from telemetry-off: "
        f"{experiment['loss_telemetry_on']} vs {experiment['loss_telemetry_off']}"
    )
    missing = REQUIRED_CATEGORIES - set(experiment["trace_categories"])
    assert not missing, f"trace is missing span categories: {sorted(missing)}"
    assert experiment["dropped_trace_events"] == 0


def _report(result: dict) -> None:
    overhead = result["overhead"]
    experiment = result["experiment"]
    print("\n=== Telemetry: disabled overhead and instrumented experiment ===")
    print(
        f"disabled overhead: {100 * (overhead['disabled_overhead_ratio'] - 1):+.2f}% "
        f"(floor +{(MAX_DISABLED_OVERHEAD - 1) * 100:.0f}%) | "
        f"enabled: {100 * (overhead['enabled_overhead_ratio'] - 1):+.2f}%"
    )
    print(
        f"experiment: bit_exact={experiment['bit_exact']} | "
        f"{experiment['trace_events']} trace events on "
        f"{experiment['trace_tracks']} tracks | "
        f"categories {experiment['trace_categories']}"
    )


def test_telemetry_benchmark():
    result = run_telemetry_benchmark(smoke=True)
    _report(result)
    check_and_record(result)


if __name__ == "__main__":
    bench_main(
        lambda smoke: run_telemetry_benchmark(smoke),
        check_and_record,
        report=_report,
    )
