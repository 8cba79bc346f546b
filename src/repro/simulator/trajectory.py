"""Monte-Carlo trajectory simulation of noisy circuits — vectorized.

Each trajectory propagates a pure statevector through the circuit; after each
gate, one Kraus operator of the relevant error channel is applied, selected
stochastically with the Born-rule weights.  Averaging over many trajectories
converges to the density-matrix evolution without ever materializing a
``4**n`` density matrix.

The engine is built around a ``(trajectories, 2**n)`` state matrix: **all**
trajectories advance through each gate together (one broadcast matmul per
gate instead of one per gate per trajectory), and Kraus selection is
vectorized — Born weights for every trajectory and every operator come from
one quadratic-form contraction against the precomputed ``K^dag K`` stack,
one uniform draw per trajectory picks the operators, and each selected
operator is applied to its group of trajectories in a single pass.  This
turned the validation engine from minutes into seconds, which is what makes
trajectory-vs-mixing agreement checks viable at experiment scale.

A per-trajectory sequential path is retained as a statistical cross-check
(:meth:`MonteCarloSimulator.average_probabilities_sequential`),
and :func:`density_matrix_probabilities` computes the *exact* noisy
distribution by evolving the density matrix — the ground truth the batched
trajectories are tested against.

This simulator is exact but comparatively slow; the large EQC experiments use
the analytic :mod:`repro.simulator.mixing` executor instead and reserve the
trajectory engine for validation (the two agree on small circuits — see
``tests/test_simulator/test_trajectory.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..circuit.circuit import QuantumCircuit
from ..circuit.gates import gate_matrix
from ..engine import marginal_distribution, marginal_probabilities
from .channels import (
    KrausChannel,
    depolarizing_channel,
    readout_confusion_matrix,
    thermal_relaxation_channel,
    two_qubit_depolarizing_channel,
)
from .result import Counts
from .sampler import apply_readout_error, apply_readout_error_batch, sample_distribution
from .statevector import Statevector

__all__ = [
    "TrajectoryNoiseSpec",
    "MonteCarloSimulator",
    "density_matrix_probabilities",
]


@dataclass(frozen=True)
class TrajectoryNoiseSpec:
    """Gate-level noise parameters consumed by the trajectory simulator.

    All durations are in seconds and decay constants in seconds; error rates
    are probabilities per gate application.

    Attributes:
        single_qubit_error: depolarizing probability after each 1-qubit gate.
        two_qubit_error: depolarizing probability after each 2-qubit gate.
        t1: relaxation time constant (seconds).
        t2: dephasing time constant (seconds).
        single_qubit_gate_time: duration of a 1-qubit gate (seconds).
        two_qubit_gate_time: duration of a 2-qubit gate (seconds).
        readout_p01: probability of reading 1 when the qubit was 0.
        readout_p10: probability of reading 0 when the qubit was 1.
    """

    single_qubit_error: float = 0.001
    two_qubit_error: float = 0.02
    t1: float = 100e-6
    t2: float = 80e-6
    single_qubit_gate_time: float = 35e-9
    two_qubit_gate_time: float = 300e-9
    readout_p01: float = 0.02
    readout_p10: float = 0.02

    def __post_init__(self) -> None:
        for name in ("single_qubit_error", "two_qubit_error", "readout_p01", "readout_p10"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name}={value} outside [0, 1]")
        if self.t1 <= 0 or self.t2 <= 0:
            raise ValueError("T1 and T2 must be positive")
        if self.t2 > 2 * self.t1 + 1e-15:
            raise ValueError("unphysical spec: T2 must not exceed 2*T1")


@dataclass
class _ChannelCache:
    """Pre-built channels for one noise spec (avoids rebuilding per gate)."""

    depol_1q: KrausChannel
    depol_2q: KrausChannel
    relax_1q: KrausChannel
    relax_2q: KrausChannel
    #: Per-channel stack of ``K^dag K`` matrices, keyed by channel identity —
    #: the quadratic forms that give Born weights without building candidate
    #: states.
    weight_ops: dict[int, np.ndarray] = field(default_factory=dict)


class MonteCarloSimulator:
    """Noisy circuit execution by stochastic Kraus-operator trajectories."""

    def __init__(self, noise: TrajectoryNoiseSpec, seed: int | None = None) -> None:
        self.noise = noise
        self._rng = np.random.default_rng(seed)
        self._cache = _ChannelCache(
            depol_1q=depolarizing_channel(noise.single_qubit_error),
            depol_2q=two_qubit_depolarizing_channel(noise.two_qubit_error),
            relax_1q=thermal_relaxation_channel(
                noise.t1, noise.t2, noise.single_qubit_gate_time
            ),
            relax_2q=thermal_relaxation_channel(
                noise.t1, noise.t2, noise.two_qubit_gate_time
            ),
        )

    # ------------------------------------------------------------------
    def run(
        self,
        circuit: QuantumCircuit,
        shots: int = 1024,
        trajectories: int = 64,
    ) -> Counts:
        """Execute a bound circuit and return noisy measurement counts.

        All trajectories advance together as one state matrix; shots are then
        sampled per trajectory, in trajectory order, from the simulator's RNG.

        Args:
            circuit: fully-bound circuit (measurements define readout qubits).
            shots: total measurement shots, split evenly over trajectories.
            trajectories: number of independent stochastic trajectories.
        """
        if not circuit.is_bound:
            raise ValueError("circuit has unbound parameters")
        if shots < 1:
            raise ValueError("shots must be >= 1")
        trajectories = max(1, min(int(trajectories), shots))
        measured = circuit.measured_qubits or tuple(range(circuit.num_qubits))
        shots_per_traj = [shots // trajectories] * trajectories
        for index in range(shots % trajectories):
            shots_per_traj[index] += 1

        probs = self._readout_probabilities(circuit, trajectories, measured)
        merged = Counts({}, shots=0)
        for row, traj_shots in enumerate(shots_per_traj):
            if traj_shots == 0:
                continue
            counts = sample_distribution(
                probs[row], traj_shots, self._rng, num_bits=len(measured)
            )
            merged = merged.merge(counts)
        return merged

    def average_probabilities(
        self, circuit: QuantumCircuit, trajectories: int = 128
    ) -> np.ndarray:
        """Trajectory-averaged outcome distribution over the measured qubits."""
        if not circuit.is_bound:
            raise ValueError("circuit has unbound parameters")
        trajectories = max(1, int(trajectories))
        measured = circuit.measured_qubits or tuple(range(circuit.num_qubits))
        probs = self._readout_probabilities(circuit, trajectories, measured)
        return probs.mean(axis=0)

    def average_probabilities_sequential(
        self, circuit: QuantumCircuit, trajectories: int = 128
    ) -> np.ndarray:
        """One-trajectory-at-a-time reference for the batched engine.

        Retained as an independent statistical cross-check: it shares no
        vectorized code with :meth:`average_probabilities`, only the channel
        definitions.
        """
        if not circuit.is_bound:
            raise ValueError("circuit has unbound parameters")
        measured = circuit.measured_qubits or tuple(range(circuit.num_qubits))
        confusions = [
            readout_confusion_matrix(self.noise.readout_p01, self.noise.readout_p10)
            for _ in measured
        ]
        acc = np.zeros(1 << len(measured), dtype=float)
        for _ in range(max(1, trajectories)):
            state = self._run_single_trajectory(circuit)
            probs = state.probabilities(list(measured))
            acc += apply_readout_error(probs, confusions)
        return acc / max(1, trajectories)

    def trajectory_states(
        self, circuit: QuantumCircuit, trajectories: int
    ) -> np.ndarray:
        """The ``(trajectories, 2**n)`` matrix of final trajectory states."""
        if not circuit.is_bound:
            raise ValueError("circuit has unbound parameters")
        return self._run_trajectory_batch(circuit, max(1, int(trajectories)))

    # ------------------------------------------------------------------
    # batched engine
    # ------------------------------------------------------------------
    def _readout_probabilities(
        self,
        circuit: QuantumCircuit,
        trajectories: int,
        measured: Sequence[int],
    ) -> np.ndarray:
        """Per-trajectory measured-register distributions incl. SPAM error."""
        states = self._run_trajectory_batch(circuit, trajectories)
        probs = marginal_probabilities(states, list(measured), circuit.num_qubits)
        if self.noise.readout_p01 == 0.0 and self.noise.readout_p10 == 0.0:
            return probs
        confusion = readout_confusion_matrix(
            self.noise.readout_p01, self.noise.readout_p10
        )
        return apply_readout_error_batch(probs, [confusion] * len(measured))

    def _run_trajectory_batch(
        self, circuit: QuantumCircuit, trajectories: int
    ) -> np.ndarray:
        n = circuit.num_qubits
        states = np.zeros((trajectories, 1 << n), dtype=complex)
        states[:, 0] = 1.0
        cache = self._cache
        for inst in circuit:
            if not inst.is_unitary:
                continue
            params = tuple(float(p) for p in inst.params)
            matrix = gate_matrix(inst.name, params)
            states = _apply_matrix_batch(states, matrix, inst.qubits, n)
            if len(inst.qubits) == 1:
                states = self._apply_channel_batch(states, cache.depol_1q, inst.qubits, n)
                states = self._apply_channel_batch(states, cache.relax_1q, inst.qubits, n)
            else:
                states = self._apply_channel_batch(states, cache.depol_2q, inst.qubits, n)
                for qubit in inst.qubits:
                    states = self._apply_channel_batch(states, cache.relax_2q, (qubit,), n)
        return states

    def _weight_ops(self, channel: KrausChannel) -> np.ndarray:
        """The channel's stacked ``K^dag K`` matrices, built once."""
        key = id(channel)
        stack = self._cache.weight_ops.get(key)
        if stack is None:
            stack = np.stack([op.conj().T @ op for op in channel.operators])
            self._cache.weight_ops[key] = stack
        return stack

    def _apply_channel_batch(
        self,
        states: np.ndarray,
        channel: KrausChannel,
        qubits: Sequence[int],
        num_qubits: int,
    ) -> np.ndarray:
        """Stochastically apply one Kraus operator per trajectory, vectorized.

        Born weights for every (trajectory, operator) pair come from one
        contraction against the ``K^dag K`` stack — no candidate states are
        materialized — then a single uniform draw per trajectory selects the
        operators and each selected operator is applied to its group of rows
        in one pass.
        """
        if channel.is_identity():
            return states
        k = channel.num_qubits
        if k != len(qubits):
            raise ValueError("channel arity does not match target qubits")
        batch = states.shape[0]
        tensor = states.reshape([batch] + [2] * num_qubits)
        src = [q + 1 for q in qubits]
        dest = list(range(1, k + 1))
        local = np.moveaxis(tensor, src, dest).reshape(batch, 1 << k, -1)

        weight_stack = self._weight_ops(channel)
        weights = np.einsum(
            "bir,kij,bjr->bk", local.conj(), weight_stack, local, optimize=True
        ).real
        weights = np.clip(weights, 0.0, None)
        totals = weights.sum(axis=1)
        active = totals > 0

        # One uniform per trajectory, scaled by the (unnormalized) total so
        # no per-row division is needed; rows with zero total keep their
        # state unchanged, matching the sequential path.
        cumulative = np.cumsum(weights, axis=1)
        draws = self._rng.random(batch) * totals
        choices = np.minimum(
            (draws[:, None] >= cumulative).sum(axis=1), len(channel.operators) - 1
        )

        out = local.copy()
        for index, op in enumerate(channel.operators):
            rows = np.nonzero(active & (choices == index))[0]
            if rows.size == 0:
                continue
            sub = op @ local[rows]
            norms = np.sqrt(np.sum(np.abs(sub) ** 2, axis=(1, 2)))
            out[rows] = sub / norms[:, None, None]

        out = out.reshape([batch] + [2] * num_qubits)
        out = np.moveaxis(out, dest, src)
        return out.reshape(batch, -1)

    # ------------------------------------------------------------------
    # sequential reference
    # ------------------------------------------------------------------
    def _run_single_trajectory(self, circuit: QuantumCircuit) -> Statevector:
        state = Statevector(circuit.num_qubits)
        for inst in circuit:
            if not inst.is_unitary:
                continue
            params = tuple(float(p) for p in inst.params)
            state.apply_gate(inst.name, inst.qubits, params)
            if len(inst.qubits) == 1:
                self._apply_channel(state, self._cache.depol_1q, inst.qubits)
                self._apply_channel(state, self._cache.relax_1q, inst.qubits)
            else:
                self._apply_channel(state, self._cache.depol_2q, inst.qubits)
                for qubit in inst.qubits:
                    self._apply_channel(state, self._cache.relax_2q, (qubit,))
        return state

    def _apply_channel(
        self, state: Statevector, channel: KrausChannel, qubits: Sequence[int]
    ) -> None:
        """Stochastically apply one Kraus operator of ``channel`` in place.

        Born weights come first, from the ``K^dag K`` quadratic forms on the
        local tensor — only the *selected* operator is ever applied to the
        state, instead of materializing a full candidate state per operator.
        """
        if channel.is_identity():
            return
        k = channel.num_qubits
        if k != len(qubits):
            raise ValueError("channel arity does not match target qubits")
        vec = state._vec  # noqa: SLF001 - internal fast path (read-only here)
        n = state.num_qubits
        tensor = vec.reshape([2] * n)
        local = np.moveaxis(tensor, list(qubits), list(range(k))).reshape(1 << k, -1)

        weight_stack = self._weight_ops(channel)
        weights = np.einsum(
            "ir,kij,jr->k", local.conj(), weight_stack, local, optimize=True
        ).real
        weights = np.clip(weights, 0.0, None)
        total = weights.sum()
        if total <= 0:
            return
        choice = self._rng.choice(weights.size, p=weights / total)
        chosen = _apply_matrix_raw(vec, channel.operators[choice], qubits, n)
        norm = np.linalg.norm(chosen)
        state._vec = chosen / norm  # noqa: SLF001 - internal fast path


def _apply_matrix_batch(
    states: np.ndarray,
    matrix: np.ndarray,
    qubits: Sequence[int],
    num_qubits: int,
) -> np.ndarray:
    """Apply one small matrix to every state of a ``(batch, 2**n)`` stack."""
    batch = states.shape[0]
    k = len(qubits)
    tensor = states.reshape([batch] + [2] * num_qubits)
    src = [q + 1 for q in qubits]
    dest = list(range(1, k + 1))
    tensor = np.moveaxis(tensor, src, dest).reshape(batch, 1 << k, -1)
    tensor = matrix @ tensor
    tensor = tensor.reshape([batch] + [2] * num_qubits)
    tensor = np.moveaxis(tensor, dest, src)
    return tensor.reshape(batch, -1)


def _apply_matrix_raw(
    vec: np.ndarray, matrix: np.ndarray, qubits: Sequence[int], num_qubits: int
) -> np.ndarray:
    """Apply a (possibly non-unitary) matrix to an amplitude vector."""
    k = len(qubits)
    tensor = vec.reshape([2] * num_qubits)
    tensor = np.moveaxis(tensor, list(qubits), list(range(k)))
    tensor = tensor.reshape(1 << k, -1)
    tensor = matrix @ tensor
    tensor = tensor.reshape([2] * k + [2] * (num_qubits - k))
    tensor = np.moveaxis(tensor, list(range(k)), list(qubits))
    # reshape(-1) copies only when the moveaxis view is non-contiguous; the
    # previous explicit ascontiguousarray always paid the copy.
    return tensor.reshape(-1)


# ---------------------------------------------------------------------------
# exact density-matrix reference
# ---------------------------------------------------------------------------


def density_matrix_probabilities(
    circuit: QuantumCircuit,
    noise: TrajectoryNoiseSpec,
) -> np.ndarray:
    """The *exact* noisy outcome distribution via density-matrix evolution.

    Evolves the full ``(2**n, 2**n)`` density matrix through every gate and
    its Kraus channels (the map the stochastic trajectories sample from), so
    trajectory averages converge to this vector as ``1/sqrt(T)``.  Intended
    for validation on small circuits — cost is ``O(4**n)`` per gate.
    """
    if not circuit.is_bound:
        raise ValueError("circuit has unbound parameters")
    n = circuit.num_qubits
    dim = 1 << n
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0

    depol_1q = depolarizing_channel(noise.single_qubit_error)
    depol_2q = two_qubit_depolarizing_channel(noise.two_qubit_error)
    relax_1q = thermal_relaxation_channel(
        noise.t1, noise.t2, noise.single_qubit_gate_time
    )
    relax_2q = thermal_relaxation_channel(
        noise.t1, noise.t2, noise.two_qubit_gate_time
    )

    def apply_unitary(matrix: np.ndarray, qubits: Sequence[int]) -> None:
        nonlocal rho
        full = _expand_operator(matrix, qubits, n)
        rho = full @ rho @ full.conj().T

    def apply_channel(channel: KrausChannel, qubits: Sequence[int]) -> None:
        nonlocal rho
        if channel.is_identity():
            return
        expanded = [_expand_operator(op, qubits, n) for op in channel.operators]
        rho = sum(full @ rho @ full.conj().T for full in expanded)

    for inst in circuit:
        if not inst.is_unitary:
            continue
        params = tuple(float(p) for p in inst.params)
        apply_unitary(gate_matrix(inst.name, params), inst.qubits)
        if len(inst.qubits) == 1:
            apply_channel(depol_1q, inst.qubits)
            apply_channel(relax_1q, inst.qubits)
        else:
            apply_channel(depol_2q, inst.qubits)
            for qubit in inst.qubits:
                apply_channel(relax_2q, (qubit,))

    measured = circuit.measured_qubits or tuple(range(n))
    diagonal = np.clip(np.real(np.diag(rho)), 0.0, None)
    probs = marginal_distribution(diagonal[None, :], measured, n)[0]

    if noise.readout_p01 != 0.0 or noise.readout_p10 != 0.0:
        confusion = readout_confusion_matrix(noise.readout_p01, noise.readout_p10)
        probs = apply_readout_error(probs, [confusion] * len(measured))
    return probs


def _expand_operator(
    matrix: np.ndarray, qubits: Sequence[int], num_qubits: int
) -> np.ndarray:
    """Lift a ``2**k``-dim operator on ``qubits`` to the full ``2**n`` space."""
    k = len(qubits)
    others = [q for q in range(num_qubits) if q not in qubits]
    full = np.kron(matrix, np.eye(1 << len(others), dtype=complex))
    # Row/column axes are currently ordered (qubits..., others...); permute
    # both sides back to physical qubit order.
    order = list(qubits) + others
    inverse = np.argsort(order)
    tensor = full.reshape([2] * (2 * num_qubits))
    perm = list(inverse) + [num_qubits + ax for ax in inverse]
    return np.transpose(tensor, perm).reshape(1 << num_qubits, 1 << num_qubits)
