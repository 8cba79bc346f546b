"""The vectorized batch statevector engine, v2: compiled gate programs.

A parameter-shift sweep submits 2·P circuits that share one gate structure
and differ only in bound rotation angles.  The v1 engine (retained below as
:func:`simulate_statevector_batch_v1` — the benchmark baseline) stacked the
batch into one ``(batch, 2**n)`` array but still re-walked the instruction
list per gate, rebuilt rotation matrices ad hoc, and paid two full-state
copies per gate.  The v2 path lowers the structure once through
:mod:`repro.engine` — adjacent-gate fusion, diagonal phase fast paths,
ping-pong state buffers — and executes the whole batch as pure array math;
for template+bindings submissions (and :meth:`run_sweep`) no per-point
``QuantumCircuit`` binding happens at all.

Gate semantics are identical to
:class:`~repro.simulator.statevector.Statevector` (same bit ordering, same
tensor contraction), so batched probabilities agree with the looped
reference to floating-point accumulation error (~1e-15; the equivalence
suite asserts ≤1e-10).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..circuit.circuit import QuantumCircuit
from ..circuit.gates import GATE_SPECS, gate_matrix
from ..circuit.sweep import ParameterSweep
from ..engine import (
    execute_program,
    marginal_probabilities,
    plan_slot_values,
    shared_program_cache,
    slot_values_from_circuits,
)
from ..engine.cache import ProgramCache
from ..simulator.result import ExecutionResult
from ..simulator.sampler import sample_distribution
from .base import ParameterBinding, measured_register, normalize_batch, unbound_sweep

__all__ = [
    "structure_signature",
    "simulate_statevector_batch",
    "simulate_statevector_batch_v1",
    "batched_probabilities",
    "sweep_probabilities",
    "sampled_sweep_results",
    "BatchedStatevectorBackend",
]


def structure_signature(circuit: QuantumCircuit):
    """A hashable key identifying a circuit's gate *structure*.

    Two circuits share a signature exactly when they apply the same gate
    names to the same qubits in the same order (parameter values excluded),
    which is the condition for simulating them as one stacked batch.  The
    key is computed (and cached) by the circuit itself.
    """
    return circuit.structure_key


def simulate_statevector_batch(
    circuits: Sequence[QuantumCircuit],
    *,
    program_cache: ProgramCache | None = None,
    dtype=None,
    tile: int | None = None,
) -> np.ndarray:
    """Simulate a batch of structurally identical bound circuits at once.

    The shared structure is compiled once (cached across calls by the
    structure-keyed program cache) and executed over the angle matrix read
    straight off the bound instruction records.

    Args:
        circuits: bound circuits sharing one :func:`structure_signature`.
        program_cache: compilation cache (default: the process-wide one).
        dtype: execution precision (``complex64`` opt-in; default complex128).
        tile: optional row-chunk size for memory-bounded execution (see
            :func:`repro.engine.execute_program`).

    Returns:
        A ``(batch, 2**n)`` complex array; row ``i`` is the final statevector
        of ``circuits[i]``.

    Raises:
        ValueError: on an empty batch, unbound circuits, or mixed structures.
    """
    circuits = list(circuits)
    if not circuits:
        raise ValueError("batch simulation needs at least one circuit")
    signature = structure_signature(circuits[0])
    for circuit in circuits[1:]:
        if structure_signature(circuit) != signature:
            raise ValueError(
                "all circuits in one batch must share the same gate structure; "
                "use BatchedStatevectorBackend.run, which partitions mixed batches"
            )
    for circuit in circuits:
        if not circuit.is_bound:
            raise ValueError("batch simulation requires fully bound circuits")

    cache = program_cache if program_cache is not None else shared_program_cache()
    program = cache.get_or_compile(circuits[0])
    thetas = slot_values_from_circuits(program, circuits)
    return execute_program(program, thetas, dtype=dtype, tile=tile)


def sweep_probabilities(
    templates: Sequence[QuantumCircuit],
    theta_matrix: np.ndarray,
    *,
    program_cache: ProgramCache | None = None,
    dtype=None,
    tile: int | None = None,
) -> list[np.ndarray]:
    """Measured-register distributions of a zero-rebind parameter sweep.

    Each template is compiled once and executed over the whole ``(points, P)``
    parameter matrix; entry ``g`` of the result is the ``(points, 2**m)``
    distribution stack of template ``g``.  No circuit is ever bound.
    ``dtype``/``tile`` select the big-``n`` execution modes (complex64
    distributions come back float32).
    """
    cache = program_cache if program_cache is not None else shared_program_cache()
    theta = np.atleast_2d(np.asarray(theta_matrix, dtype=float))
    out: list[np.ndarray] = []
    for template in templates:
        program = cache.get_or_compile(template)
        plan = cache.plan_for(template, program)
        states = execute_program(
            program, plan_slot_values(plan, theta), dtype=dtype, tile=tile
        )
        measured = measured_register(template)
        out.append(marginal_probabilities(states, measured, template.num_qubits))
    return out


def sampled_sweep_results(
    backend_name: str,
    templates: Sequence[QuantumCircuit],
    theta_matrix: np.ndarray,
    shots: int,
    seed: int | None,
    rng: np.random.Generator | None,
    *,
    program_cache: ProgramCache | None = None,
    dtype=None,
    tile: int | None = None,
) -> list[ExecutionResult]:
    """Sample a zero-rebind sweep in point-major, templates-inner order.

    This is the single implementation behind every backend's ``run_sweep``:
    the flat sampling order matches
    :func:`repro.vqa.gradient.parameter_shift_batch`, so one seeded RNG
    stream is consumed exactly as if the bound circuits had been submitted
    through ``run`` — the ordering contract seeded histories depend on.
    """
    templates = list(templates)
    theta = np.atleast_2d(np.asarray(theta_matrix, dtype=float))
    probabilities = sweep_probabilities(
        templates, theta, program_cache=program_cache, dtype=dtype, tile=tile
    )
    widths = [len(measured_register(t)) for t in templates]
    rng = rng if rng is not None else np.random.default_rng(seed)
    results: list[ExecutionResult] = []
    for point in range(theta.shape[0]):
        for probs, num_bits in zip(probabilities, widths):
            counts = sample_distribution(probs[point], shots, rng, num_bits=num_bits)
            results.append(
                ExecutionResult(
                    counts=counts,
                    shots=shots,
                    backend_name=backend_name,
                    metadata={
                        "sweep_points": int(theta.shape[0]),
                        "sweep_templates": len(templates),
                    },
                )
            )
    return results


# ---------------------------------------------------------------------------
# v1 engine — the PR-1 stacked-matmul path, retained as the benchmark
# baseline the compiled engine is measured against.
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
    Accepts exactly what :func:`simulate_statevector_batch` accepts (one
    shared structure, fully bound).
    """
    circuits = list(circuits)
    if not circuits:
        raise ValueError("batch simulation needs at least one circuit")
    signature = structure_signature(circuits[0])
    for circuit in circuits[1:]:
        if structure_signature(circuit) != signature:
            raise ValueError(
                "all circuits in one batch must share the same gate structure; "
                "use BatchedStatevectorBackend.run, which partitions mixed batches"
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


def batched_probabilities(
    states: np.ndarray,
    qubits: Sequence[int],
    num_qubits: int,
) -> np.ndarray:
    """Measurement probabilities over ``qubits`` for every state in a stack.

    Returns a ``(batch, 2**len(qubits))`` array matching
    :meth:`Statevector.probabilities` row by row.
    """
    return marginal_probabilities(states, qubits, num_qubits)


class BatchedStatevectorBackend:
    """Ideal execution backend running compiled programs over batches.

    ``run`` partitions an arbitrary batch by :func:`structure_signature`,
    executes each partition through one compiled-program pass, and samples
    the per-circuit counts in input order so a single seeded RNG stream is
    consumed identically to a sequential backend.  A single template with
    ordered parameter bindings — the parameter-shift shape — skips circuit
    binding entirely.
    """

    def __init__(
        self,
        name: str = "batched_statevector",
        program_cache: ProgramCache | None = None,
        *,
        dtype=None,
        tile: int | None = None,
    ) -> None:
        self.name = name
        self.program_cache = (
            program_cache if program_cache is not None else shared_program_cache()
        )
        #: Execution mode for every pass this backend runs (see
        #: :func:`repro.engine.execute_program`); the defaults keep the
        #: bit-exact complex128 untiled path.
        self.dtype = dtype
        self.tile = tile

    def run(
        self,
        circuits: QuantumCircuit | Sequence[QuantumCircuit] | ParameterSweep,
        parameter_bindings: Sequence[ParameterBinding] | None = None,
        shots: int = 8192,
        seed: int | None = None,
        rng: np.random.Generator | None = None,
        **_context,
    ) -> list[ExecutionResult]:
        """Execute a batch ideally; one compiled pass per structure group.

        Device context (``footprint``, ``now``) is accepted and ignored so the
        batched engine can serve a cloud endpoint directly.

        Args:
            circuits: a template or a sequence of circuits.
            parameter_bindings: optional bindings (see :mod:`repro.backends.base`).
            shots: measurement shots per circuit.
            seed: sampling seed (ignored when ``rng`` is given).
            rng: externally-owned RNG; takes precedence over ``seed``.
        """
        sweep = unbound_sweep(circuits, parameter_bindings)
        if sweep is not None:
            return self.run_sweep(
                sweep.templates, sweep.theta, shots=shots, seed=seed, rng=rng
            )
        if (
            isinstance(circuits, QuantumCircuit)
            and parameter_bindings is not None
            and len(parameter_bindings) > 1
            and all(
                not hasattr(binding, "keys") for binding in parameter_bindings
            )
        ):
            # Zero-rebind fast path: one template + ordered value vectors.
            theta = np.asarray(
                [[float(v) for v in binding] for binding in parameter_bindings],
                dtype=float,
            )
            probabilities = sweep_probabilities(
                [circuits],
                theta,
                program_cache=self.program_cache,
                dtype=self.dtype,
                tile=self.tile,
            )[0]
            rng = rng if rng is not None else np.random.default_rng(seed)
            num_bits = len(measured_register(circuits))
            return [
                ExecutionResult(
                    counts=sample_distribution(row, shots, rng, num_bits=num_bits),
                    shots=shots,
                    backend_name=self.name,
                    metadata={"batch_size": theta.shape[0], "structure_groups": 1},
                )
                for row in probabilities
            ]

        bound = normalize_batch(circuits, parameter_bindings)
        partitions = self._partition(bound)
        probabilities = self._partition_probabilities(bound, partitions)
        rng = rng if rng is not None else np.random.default_rng(seed)
        results: list[ExecutionResult] = []
        groups = len(partitions)
        for circuit, probs in zip(bound, probabilities):
            counts = sample_distribution(
                probs, shots, rng, num_bits=len(measured_register(circuit))
            )
            results.append(
                ExecutionResult(
                    counts=counts,
                    shots=shots,
                    backend_name=self.name,
                    metadata={"batch_size": len(bound), "structure_groups": groups},
                )
            )
        return results

    def run_sweep(
        self,
        templates: Sequence[QuantumCircuit],
        theta_matrix: np.ndarray,
        shots: int = 8192,
        seed: int | None = None,
        rng: np.random.Generator | None = None,
        **_context,
    ) -> list[ExecutionResult]:
        """Execute a zero-rebind parameter sweep over template circuits.

        The result order is point-major with templates inner —
        ``[point0 × templates..., point1 × templates..., ...]`` — matching
        the flat circuit order of :func:`repro.vqa.gradient.parameter_shift_batch`,
        so a single seeded RNG stream is consumed identically to submitting
        the bound circuits through :meth:`run`.  Device context is accepted
        and ignored, as in :meth:`run`.
        """
        return sampled_sweep_results(
            self.name,
            templates,
            theta_matrix,
            shots,
            seed,
            rng,
            program_cache=self.program_cache,
            dtype=self.dtype,
            tile=self.tile,
        )

    def probabilities(self, circuits: Sequence[QuantumCircuit]) -> list[np.ndarray]:
        """Exact measured-register distributions for a batch, in input order."""
        circuits = list(circuits)
        return self._partition_probabilities(circuits, self._partition(circuits))

    @staticmethod
    def _partition(circuits: Sequence[QuantumCircuit]) -> dict[object, list[int]]:
        """Group batch indices by structure signature (one pass)."""
        partitions: dict[object, list[int]] = {}
        for index, circuit in enumerate(circuits):
            partitions.setdefault(structure_signature(circuit), []).append(index)
        return partitions

    def _partition_probabilities(
        self, circuits: Sequence[QuantumCircuit], partitions: dict[object, list[int]]
    ) -> list[np.ndarray]:
        out: list[np.ndarray | None] = [None] * len(circuits)
        for indices in partitions.values():
            members = [circuits[i] for i in indices]
            states = simulate_statevector_batch(
                members,
                program_cache=self.program_cache,
                dtype=self.dtype,
                tile=self.tile,
            )
            measured = measured_register(members[0])
            probs = marginal_probabilities(states, measured, members[0].num_qubits)
            for row, index in enumerate(indices):
                out[index] = probs[row]
        return out  # type: ignore[return-value]
