"""Engine benchmark — compiled programs vs the v1 batch engine vs sequential.

Two workloads, recorded in ``BENCH_engine.json`` at the repository root so
the performance trajectory of the execution layer is tracked across PRs:

* **micro** — the original 5-qubit, 8-parameter hardware-efficient sweep
  (16 structurally identical circuits), timed through the looped reference
  simulator, the v1 stacked-matmul batch engine, and the compiled engine.
* **macro** — a depth-heavy 6-qubit, 4-layer QAOA parameter-shift sweep.
  The v1 path pays per-point circuit binding plus per-gate stacked matmuls;
  the compiled path lowers the ansatz once and executes the raw ``(2·P, P)``
  shift matrix with fusion, diagonal phase fast paths, and ping-pong
  buffers.

Floors (enforced on every run, including ``--smoke`` in CI): the compiled
engine must hold ≥3x over the v1 batch engine on the macro sweep and ≥3x
over the sequential reference on the micro sweep, with ≤1e-10 probability
parity everywhere.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from _common import bench_json_path, bench_main, write_bench_json

from repro.backends import StatevectorBackend
from repro.circuit import (
    ParameterSweep,
    QuantumCircuit,
    hardware_efficient_ansatz,
    qaoa_maxcut_ansatz,
)
from repro.circuit.gates import GATE_SPECS, gate_matrix
from repro.engine import marginal_probabilities, shared_program_cache
from repro.simulator.statevector import simulate_statevector
from repro.vqa.gradient import shifted_parameter_vectors, shifted_theta_matrix

NUM_QUBITS = 5
NUM_PARAMETERS = 8
REPEATS = 15
SMOKE_REPEATS = 3
MACRO_QUBITS = 6
MACRO_LAYERS = 4
BENCH_PATH = bench_json_path("engine")

#: Pinned CI floors — a compiled engine slower than this is a regression.
MIN_COMPILED_OVER_V1 = 3.0
MIN_COMPILED_OVER_SEQUENTIAL = 3.0
MAX_PROBABILITY_DELTA = 1e-10


# ---------------------------------------------------------------------------
# v1 engine — the PR-1 stacked-matmul path, kept here (the only file that
# times it) as the baseline the compiled engine is measured against.
# ---------------------------------------------------------------------------


def _batched_rotation_matrices(name: str, thetas: np.ndarray) -> np.ndarray:
    """Stacked ``(batch, dim, dim)`` unitaries for one rotation gate (v1)."""
    half = 0.5 * thetas
    if name == "rx":
        c, s = np.cos(half), np.sin(half)
        mats = np.zeros((thetas.size, 2, 2), dtype=complex)
        mats[:, 0, 0] = c
        mats[:, 0, 1] = -1j * s
        mats[:, 1, 0] = -1j * s
        mats[:, 1, 1] = c
        return mats
    if name == "ry":
        c, s = np.cos(half), np.sin(half)
        mats = np.zeros((thetas.size, 2, 2), dtype=complex)
        mats[:, 0, 0] = c
        mats[:, 0, 1] = -s
        mats[:, 1, 0] = s
        mats[:, 1, 1] = c
        return mats
    if name == "rz":
        mats = np.zeros((thetas.size, 2, 2), dtype=complex)
        mats[:, 0, 0] = np.exp(-1j * half)
        mats[:, 1, 1] = np.exp(1j * half)
        return mats
    if name == "rzz":
        phase = np.exp(-1j * half)
        conj = np.exp(1j * half)
        mats = np.zeros((thetas.size, 4, 4), dtype=complex)
        mats[:, 0, 0] = phase
        mats[:, 1, 1] = conj
        mats[:, 2, 2] = conj
        mats[:, 3, 3] = phase
        return mats
    raise ValueError(f"no batched matrix rule for gate {name!r}")


def _apply_batched(
    states: np.ndarray,
    matrices: np.ndarray,
    qubits: Sequence[int],
    num_qubits: int,
) -> np.ndarray:
    """Apply one gate to every state in a ``(batch, 2**n)`` stack (v1).

    ``matrices`` is either a single ``(2**k, 2**k)`` unitary (broadcast over
    the batch) or a stacked ``(batch, 2**k, 2**k)`` array.
    """
    batch = states.shape[0]
    k = len(qubits)
    tensor = states.reshape([batch] + [2] * num_qubits)
    src = [q + 1 for q in qubits]
    dest = list(range(1, k + 1))
    tensor = np.moveaxis(tensor, src, dest)
    tensor = tensor.reshape(batch, 1 << k, -1)
    tensor = matrices @ tensor
    tensor = tensor.reshape([batch] + [2] * num_qubits)
    tensor = np.moveaxis(tensor, dest, src)
    return np.ascontiguousarray(tensor.reshape(batch, -1))


def simulate_statevector_batch_v1(circuits: Sequence[QuantumCircuit]) -> np.ndarray:
    """The PR-1 stacked-matmul batch engine (benchmark baseline).

    One broadcast/stacked matmul per gate, with a ``moveaxis`` pair and a
    contiguous copy per application — the costs the compiled engine removes.
    Accepts bound circuits sharing one gate structure.
    """
    circuits = list(circuits)
    if not circuits:
        raise ValueError("batch simulation needs at least one circuit")
    signature = circuits[0].structure_key
    for circuit in circuits[1:]:
        if circuit.structure_key != signature:
            raise ValueError(
                "all circuits in one batch must share the same gate structure"
            )
    for circuit in circuits:
        if not circuit.is_bound:
            raise ValueError("batch simulation requires fully bound circuits")
    n = circuits[0].num_qubits
    batch = len(circuits)
    states = np.zeros((batch, 1 << n), dtype=complex)
    states[:, 0] = 1.0

    # Instruction tuples are cached on the circuits themselves now; the
    # snapshot just keeps the per-gate indexing loop tight.
    instruction_lists = [c.instructions for c in circuits]
    reference = instruction_lists[0]
    for position, inst in enumerate(reference):
        if not inst.is_unitary:
            continue
        spec = GATE_SPECS[inst.name]
        if spec.num_params == 0:
            states = _apply_batched(states, gate_matrix(inst.name), inst.qubits, n)
            continue
        thetas = np.fromiter(
            (float(insts[position].params[0]) for insts in instruction_lists),
            dtype=float,
            count=batch,
        )
        if np.all(thetas == thetas[0]):
            matrix = gate_matrix(inst.name, (thetas[0],))
            states = _apply_batched(states, matrix, inst.qubits, n)
        else:
            matrices = _batched_rotation_matrices(inst.name, thetas)
            states = _apply_batched(states, matrices, inst.qubits, n)
    return states


def _best_of(callable_, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def _sequential_probabilities(circuits) -> list[np.ndarray]:
    return [
        simulate_statevector(c).probabilities(list(range(c.num_qubits)))
        for c in circuits
    ]


def build_micro_sweep() -> list:
    """The 16 bound circuits of an 8-parameter shift sweep (PR-1 workload)."""
    template = hardware_efficient_ansatz(NUM_QUBITS)
    rng = np.random.default_rng(20260729)
    theta = rng.uniform(-np.pi, np.pi, len(template.ordered_parameters()))
    circuits = []
    for index in range(NUM_PARAMETERS):
        pair = shifted_parameter_vectors(theta, index)
        circuits.append(template.assign_by_order(pair.forward))
        circuits.append(template.assign_by_order(pair.backward))
    return circuits


def run_micro(repeats: int) -> dict:
    circuits = build_micro_sweep()
    n = circuits[0].num_qubits
    backend = StatevectorBackend()

    def v1():
        return marginal_probabilities(
            simulate_statevector_batch_v1(circuits), range(n), n
        )

    def v2():
        return backend.probabilities(circuits)

    reference = _sequential_probabilities(circuits)
    max_delta = max(
        float(np.max(np.abs(np.asarray(v2()) - np.asarray(reference)))),
        float(np.max(np.abs(v1() - np.asarray(reference)))),
    )

    sequential_seconds = _best_of(lambda: _sequential_probabilities(circuits), repeats)
    v1_seconds = _best_of(v1, repeats)
    v2_seconds = _best_of(v2, repeats)
    return {
        "config": {
            "num_qubits": NUM_QUBITS,
            "num_parameters": NUM_PARAMETERS,
            "batch_size": len(circuits),
            "repeats": repeats,
        },
        "sequential_seconds": sequential_seconds,
        "batched_v1_seconds": v1_seconds,
        "compiled_seconds": v2_seconds,
        "speedup_v1_vs_sequential": sequential_seconds / v1_seconds,
        "speedup_compiled_vs_sequential": sequential_seconds / v2_seconds,
        "speedup_compiled_vs_v1": v1_seconds / v2_seconds,
        "max_probability_delta": max_delta,
    }


def run_macro(repeats: int) -> dict:
    """Depth-heavy QAOA parameter-shift macro-benchmark (end-to-end sweep)."""
    edges = [
        (i, j)
        for i in range(MACRO_QUBITS)
        for j in range(i + 1, MACRO_QUBITS)
        if (i + j) % 2 == 1 or j == i + 1
    ]
    template = qaoa_maxcut_ansatz(MACRO_QUBITS, edges, num_layers=MACRO_LAYERS)
    num_parameters = len(template.ordered_parameters())
    rng = np.random.default_rng(42)
    theta = shifted_theta_matrix(rng.uniform(-np.pi, np.pi, num_parameters))

    def v1():
        # What a PR-1 sweep paid: bind every point, then stacked matmuls.
        bound = [template.assign_by_order(row) for row in theta]
        return marginal_probabilities(
            simulate_statevector_batch_v1(bound), range(MACRO_QUBITS), MACRO_QUBITS
        )

    backend = StatevectorBackend()

    def v2():
        # Zero-rebind compiled execution straight off the shift matrix.
        return np.asarray(backend.probabilities(ParameterSweep([template], theta)))

    shared_program_cache().get_or_compile(template)  # compile outside timing
    bound = [template.assign_by_order(row) for row in theta]
    reference = np.asarray(_sequential_probabilities(bound))
    max_delta = max(
        float(np.max(np.abs(v2() - reference))),
        float(np.max(np.abs(v1() - reference))),
    )

    sequential_seconds = _best_of(
        lambda: _sequential_probabilities(bound), max(2, repeats // 3)
    )
    v1_seconds = _best_of(v1, repeats)
    v2_seconds = _best_of(v2, repeats)
    return {
        "config": {
            "num_qubits": MACRO_QUBITS,
            "num_layers": MACRO_LAYERS,
            "num_edges": len(edges),
            "num_parameters": num_parameters,
            "sweep_points": int(theta.shape[0]),
            "gates": len(template),
            "repeats": repeats,
        },
        "sequential_seconds": sequential_seconds,
        "bind_plus_v1_seconds": v1_seconds,
        "compiled_seconds": v2_seconds,
        "speedup_compiled_vs_v1": v1_seconds / v2_seconds,
        "speedup_compiled_vs_sequential": sequential_seconds / v2_seconds,
        "max_probability_delta": max_delta,
    }


def run_engine_benchmark(repeats: int = REPEATS) -> dict:
    return {
        "benchmark": "engine_batch",
        "micro_hea_sweep": run_micro(repeats),
        "macro_qaoa_sweep": run_macro(repeats),
    }


def check_and_record(result: dict) -> None:
    """Persist the result and enforce the acceptance criteria.

    Shared by the pytest entry point and the CLI so CI fails loudly on a
    parity break or a speedup regression no matter how it runs this file.
    """
    write_bench_json(BENCH_PATH, result)
    micro = result["micro_hea_sweep"]
    macro = result["macro_qaoa_sweep"]
    for section in (micro, macro):
        assert section["max_probability_delta"] <= MAX_PROBABILITY_DELTA, (
            f"engine parity broken: {section['max_probability_delta']:.3e}"
        )
    assert micro["speedup_compiled_vs_sequential"] >= MIN_COMPILED_OVER_SEQUENTIAL, (
        "compiled engine regressed below "
        f"{MIN_COMPILED_OVER_SEQUENTIAL}x over sequential: "
        f"{micro['speedup_compiled_vs_sequential']:.2f}x"
    )
    assert macro["speedup_compiled_vs_v1"] >= MIN_COMPILED_OVER_V1, (
        f"compiled engine regressed below {MIN_COMPILED_OVER_V1}x over the "
        f"v1 batch engine: {macro['speedup_compiled_vs_v1']:.2f}x"
    )


def _report(result: dict) -> None:
    micro = result["micro_hea_sweep"]
    macro = result["macro_qaoa_sweep"]
    print("\n=== Engine micro: 16-circuit HEA sweep ===")
    print(
        f"sequential {micro['sequential_seconds'] * 1e3:.2f} ms | "
        f"v1 {micro['batched_v1_seconds'] * 1e3:.2f} ms | "
        f"compiled {micro['compiled_seconds'] * 1e3:.2f} ms | "
        f"compiled/sequential {micro['speedup_compiled_vs_sequential']:.1f}x | "
        f"max |dp| {micro['max_probability_delta']:.1e}"
    )
    print("=== Engine macro: depth-heavy QAOA parameter-shift sweep ===")
    print(
        f"sequential {macro['sequential_seconds'] * 1e3:.2f} ms | "
        f"bind+v1 {macro['bind_plus_v1_seconds'] * 1e3:.2f} ms | "
        f"compiled {macro['compiled_seconds'] * 1e3:.2f} ms | "
        f"compiled/v1 {macro['speedup_compiled_vs_v1']:.1f}x | "
        f"compiled/sequential {macro['speedup_compiled_vs_sequential']:.1f}x | "
        f"max |dp| {macro['max_probability_delta']:.1e}"
    )


def test_engine_batch_speedup():
    result = run_engine_benchmark()
    _report(result)
    check_and_record(result)


if __name__ == "__main__":
    bench_main(
        lambda smoke: run_engine_benchmark(SMOKE_REPEATS if smoke else REPEATS),
        check_and_record,
        report=_report,
    )
