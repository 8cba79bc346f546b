"""Noisy-path benchmark — vectorized device batches vs sequential execution.

Three workloads, recorded in ``BENCH_noisy.json`` at the repository root so
the performance trajectory of the noisy execution layer is tracked across
PRs:

* **ensemble gradient batch** — the EQC hot path: a 16-circuit (8-parameter
  forward/backward) parameter-shift batch through ``NoisyBackend`` on one
  simulated device, timed against the retained sequential reference
  (per-circuit :meth:`QPU.execute` with the identical in-batch device
  clock).  Counts must be **bit-exact** between the two paths.
* **zero-rebind sweep** — the same batch submitted to ``NoisyBackend.run`` as
  an unbound ``ParameterSweep`` over the raw shift matrix (no circuit is ever
  bound), against binding the circuits and submitting those.
* **trajectory average** — 128-trajectory ``average_probabilities`` through
  the batched ``(trajectories, 2**n)`` engine vs the sequential
  one-trajectory-at-a-time reference, cross-checked against the exact
  density-matrix evolution.

Floors (enforced on every run, including ``--smoke`` in CI): the batched
device path must hold >=3x on the ensemble gradient batch with <=1e-10
probability parity and bit-exact seeded counts, and the batched trajectory
engine must hold >=10x on the 128-trajectory average.
"""

from __future__ import annotations

import time

import numpy as np

from _common import bench_json_path, bench_main, write_bench_json

from repro.backends.noisy import NoisyBackend
from repro.circuit import ParameterSweep, ghz_state, hardware_efficient_ansatz
from repro.devices.catalog import build_qpu
from repro.devices.qpu import CircuitFootprint, job_slot_circuit_seconds
from repro.simulator.mixing import noisy_probabilities, noisy_probabilities_batch
from repro.simulator.trajectory import (
    MonteCarloSimulator,
    TrajectoryNoiseSpec,
    density_matrix_probabilities,
)
from repro.vqa.gradient import shifted_parameter_vectors, shifted_theta_matrix

NUM_QUBITS = 5
NUM_PARAMETERS = 8
SHOTS = 512
DEVICE = "Belem"
BATCH_START_TIME = 1000.0
TRAJECTORIES = 128
TRAJECTORY_QUBITS = 4
REPEATS = 15
SMOKE_REPEATS = 5
BENCH_PATH = bench_json_path("noisy")

#: Pinned CI floors — a batched noisy path slower than this is a regression.
MIN_BATCHED_OVER_SEQUENTIAL = 3.0
MIN_TRAJECTORY_SPEEDUP = 10.0
MAX_PROBABILITY_DELTA = 1e-10


def _best_of(callable_, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def build_gradient_batch():
    """The 16 bound circuits of an 8-parameter shift sweep, plus template."""
    template = hardware_efficient_ansatz(NUM_QUBITS).measure_all()
    rng = np.random.default_rng(20260729)
    theta = rng.uniform(-np.pi, np.pi, len(template.ordered_parameters()))
    circuits = []
    for index in range(NUM_PARAMETERS):
        pair = shifted_parameter_vectors(theta, index)
        circuits.append(template.assign_by_order(pair.forward))
        circuits.append(template.assign_by_order(pair.backward))
    matrix = shifted_theta_matrix(theta, list(range(NUM_PARAMETERS)))
    return template, circuits, matrix


def run_gradient_batch(repeats: int) -> dict:
    """16-circuit parameter-shift batch through NoisyBackend vs sequential."""
    template, circuits, _ = build_gradient_batch()
    qpu = build_qpu(DEVICE)
    backend = NoisyBackend(qpu)
    footprint = CircuitFootprint.from_circuit(circuits[0])

    def sequential():
        rng = np.random.default_rng(0)
        elapsed = 0.0
        results = []
        for circuit in circuits:
            result = qpu.execute(
                circuit, footprint, SHOTS, now=BATCH_START_TIME + elapsed, rng=rng
            )
            results.append(result)
            elapsed += job_slot_circuit_seconds(result.duration_seconds)
        return results

    def batched():
        return backend.run(
            circuits,
            shots=SHOTS,
            footprint=footprint,
            now=BATCH_START_TIME,
            rng=np.random.default_rng(0),
        )

    # Parity: the batched pipeline's distributions against the sequential
    # per-circuit path, on the specs of each circuit's clock position.
    _, _, specs = qpu.noise_timeline(len(circuits), footprint, BATCH_START_TIME)
    batched_probs = noisy_probabilities_batch(circuits, specs)
    max_delta = max(
        float(np.max(np.abs(batch_row - noisy_probabilities(circuit, spec))))
        for circuit, spec, batch_row in zip(circuits, specs, batched_probs)
    )

    # Seeded counts must be bit-exact between the two paths.
    sequential_results = sequential()
    batched_results = batched()
    counts_bit_exact = all(
        dict(a.counts) == dict(b.counts)
        for a, b in zip(batched_results, sequential_results)
    )

    sequential_seconds = _best_of(sequential, repeats)
    batched_seconds = _best_of(batched, repeats)
    return {
        "config": {
            "device": DEVICE,
            "num_qubits": NUM_QUBITS,
            "num_parameters": NUM_PARAMETERS,
            "batch_size": len(circuits),
            "shots": SHOTS,
            "repeats": repeats,
        },
        "sequential_seconds": sequential_seconds,
        "batched_seconds": batched_seconds,
        "speedup_batched_vs_sequential": sequential_seconds / batched_seconds,
        "max_probability_delta": max_delta,
        "counts_bit_exact": counts_bit_exact,
    }


def run_sweep_batch(repeats: int) -> dict:
    """An unbound sweep vs bind-then-run on the same shift matrix."""
    template, _, matrix = build_gradient_batch()
    backend = NoisyBackend(build_qpu(DEVICE))
    footprint = CircuitFootprint.from_circuit(template)

    def bind_and_run():
        bound = [template.assign_by_order(row) for row in matrix]
        return backend.run(
            bound,
            shots=SHOTS,
            footprint=footprint,
            now=BATCH_START_TIME,
            rng=np.random.default_rng(0),
        )

    def sweep():
        return backend.run(
            ParameterSweep([template], matrix),
            shots=SHOTS,
            footprint=footprint,
            now=BATCH_START_TIME,
            rng=np.random.default_rng(0),
        )

    swept = sweep()
    bound = bind_and_run()
    counts_bit_exact = all(
        dict(a.counts) == dict(b.counts) for a, b in zip(swept, bound)
    )

    bind_seconds = _best_of(bind_and_run, repeats)
    sweep_seconds = _best_of(sweep, repeats)
    return {
        "config": {
            "device": DEVICE,
            "sweep_points": int(matrix.shape[0]),
            "shots": SHOTS,
            "repeats": repeats,
        },
        "bind_and_run_seconds": bind_seconds,
        "run_sweep_seconds": sweep_seconds,
        "speedup_sweep_vs_bind": bind_seconds / sweep_seconds,
        "counts_bit_exact": counts_bit_exact,
    }


def run_trajectory_average(repeats: int) -> dict:
    """128-trajectory average_probabilities: batched engine vs sequential."""
    spec = TrajectoryNoiseSpec(single_qubit_error=0.01, two_qubit_error=0.05)
    circuit = ghz_state(TRAJECTORY_QUBITS)
    simulator = MonteCarloSimulator(spec, seed=7)

    sequential_seconds = _best_of(
        lambda: simulator.average_probabilities_sequential(
            circuit, trajectories=TRAJECTORIES
        ),
        max(2, repeats // 3),
    )
    batched_seconds = _best_of(
        lambda: simulator.average_probabilities(circuit, trajectories=TRAJECTORIES),
        repeats,
    )

    # Cross-check both engines against the exact density-matrix evolution;
    # 2000 batched trajectories are cheap enough to pin the agreement.
    exact = density_matrix_probabilities(circuit, spec)
    averaged = simulator.average_probabilities(circuit, trajectories=2000)
    max_delta_exact = float(np.max(np.abs(averaged - exact)))

    return {
        "config": {
            "num_qubits": TRAJECTORY_QUBITS,
            "trajectories": TRAJECTORIES,
            "repeats": repeats,
        },
        "sequential_seconds": sequential_seconds,
        "batched_seconds": batched_seconds,
        "speedup_batched_vs_sequential": sequential_seconds / batched_seconds,
        "max_delta_vs_density_matrix": max_delta_exact,
    }


def run_noisy_benchmark(repeats: int = REPEATS) -> dict:
    return {
        "benchmark": "noisy_batch",
        "ensemble_gradient_batch": run_gradient_batch(repeats),
        "zero_rebind_sweep": run_sweep_batch(repeats),
        "trajectory_average": run_trajectory_average(repeats),
    }


def check_and_record(result: dict) -> None:
    """Persist the result and enforce the acceptance criteria.

    Shared by the pytest entry point and the CLI so CI fails loudly on a
    parity break or a speedup regression no matter how it runs this file.
    """
    write_bench_json(BENCH_PATH, result)
    gradient = result["ensemble_gradient_batch"]
    sweep = result["zero_rebind_sweep"]
    trajectory = result["trajectory_average"]

    assert gradient["max_probability_delta"] <= MAX_PROBABILITY_DELTA, (
        f"noisy batch parity broken: {gradient['max_probability_delta']:.3e}"
    )
    assert gradient["counts_bit_exact"], "batched counts diverged from sequential"
    assert sweep["counts_bit_exact"], "sweep counts diverged from bound run"
    assert gradient["speedup_batched_vs_sequential"] >= MIN_BATCHED_OVER_SEQUENTIAL, (
        "batched noisy path regressed below "
        f"{MIN_BATCHED_OVER_SEQUENTIAL}x over sequential: "
        f"{gradient['speedup_batched_vs_sequential']:.2f}x"
    )
    assert trajectory["speedup_batched_vs_sequential"] >= MIN_TRAJECTORY_SPEEDUP, (
        "batched trajectory engine regressed below "
        f"{MIN_TRAJECTORY_SPEEDUP}x over sequential: "
        f"{trajectory['speedup_batched_vs_sequential']:.2f}x"
    )
    assert trajectory["max_delta_vs_density_matrix"] < 0.05, (
        "trajectory engine disagrees with density-matrix evolution: "
        f"{trajectory['max_delta_vs_density_matrix']:.3f}"
    )


def _report(result: dict) -> None:
    gradient = result["ensemble_gradient_batch"]
    sweep = result["zero_rebind_sweep"]
    trajectory = result["trajectory_average"]
    print("\n=== Noisy: 16-circuit ensemble gradient batch (NoisyBackend) ===")
    print(
        f"sequential {gradient['sequential_seconds'] * 1e3:.2f} ms | "
        f"batched {gradient['batched_seconds'] * 1e3:.2f} ms | "
        f"speedup {gradient['speedup_batched_vs_sequential']:.1f}x | "
        f"max |dp| {gradient['max_probability_delta']:.1e} | "
        f"counts bit-exact: {gradient['counts_bit_exact']}"
    )
    print("=== Noisy: zero-rebind device sweep ===")
    print(
        f"bind+run {sweep['bind_and_run_seconds'] * 1e3:.2f} ms | "
        f"run_sweep {sweep['run_sweep_seconds'] * 1e3:.2f} ms | "
        f"speedup {sweep['speedup_sweep_vs_bind']:.1f}x | "
        f"counts bit-exact: {sweep['counts_bit_exact']}"
    )
    print("=== Noisy: 128-trajectory average_probabilities ===")
    print(
        f"sequential {trajectory['sequential_seconds'] * 1e3:.1f} ms | "
        f"batched {trajectory['batched_seconds'] * 1e3:.1f} ms | "
        f"speedup {trajectory['speedup_batched_vs_sequential']:.1f}x | "
        f"max delta vs density matrix {trajectory['max_delta_vs_density_matrix']:.4f}"
    )


def test_noisy_batch_speedup():
    result = run_noisy_benchmark()
    _report(result)
    check_and_record(result)


if __name__ == "__main__":
    bench_main(
        lambda smoke: run_noisy_benchmark(SMOKE_REPEATS if smoke else REPEATS),
        check_and_record,
        report=_report,
    )
