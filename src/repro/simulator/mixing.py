"""Fast analytic noisy execution: global depolarizing mixing + SPAM.

The EQC experiments replay hundreds of thousands of circuit executions
(Section V reports ~500k on IBMQ), so the large-scale harness cannot afford
per-gate noise channels on a density matrix.  This module provides the
standard approximation used for such studies:

1. simulate the circuit ideally, with a *coherent* per-device over-rotation
   bias applied to every rotation angle (``theta -> theta * (1 + bias)`` on
   ``rx``/``ry``/``rz``/``rzz``; discrete gates are untouched),
2. mix the ideal outcome distribution with the maximally-mixed (uniform)
   distribution, weighted by the device's probability of error-free execution
   for this transpiled circuit,
3. push the result through per-qubit readout-confusion matrices,
4. sample shots.

Step 2's weight is exactly the quantity the paper's ``PCorrect`` model
(Eq. 2) estimates; the *ground-truth* value used here is computed by the
device model from its private calibration state (including latent cross-talk
and drift the estimator cannot see), which is what gives the Fig. 4
calculated-vs-observed scatter its spread.  The whole map is stated a second
time, as dense density-matrix evolution of full gate unitaries, in
``tests/_reference/density_matrix.py``; the two agree to 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..circuit.circuit import QuantumCircuit
from ..circuit.sweep import ParameterSweep
from ..engine import execute_program, lower_batch, marginal_probabilities
from .sampler import (
    apply_readout_error,
    apply_readout_error_batch,
    readout_confusion_matrix,
)

__all__ = ["MixingNoiseSpec", "noisy_probabilities_batch"]

_ROTATION_GATES = frozenset({"rx", "ry", "rz", "rzz"})


@dataclass(frozen=True)
class MixingNoiseSpec:
    """Noise description consumed by the analytic mixing executor.

    Attributes:
        success_probability: probability the whole circuit executes without a
            depolarizing fault; the complement mixes the output with the
            uniform distribution.
        readout_p01: per-qubit probability of reading 1 for a true 0.
        readout_p10: per-qubit probability of reading 0 for a true 1.
        coherent_bias: multiplicative over-rotation applied to every rotation
            angle (``theta -> theta * (1 + coherent_bias)``); models the
            device-specific systematic bias that single-device VQA training
            silently absorbs into its learned parameters (paper Section I).
        per_qubit_readout: optional explicit (p01, p10) per measured qubit,
            overriding the scalar values when provided.
    """

    success_probability: float
    readout_p01: float = 0.0
    readout_p10: float = 0.0
    coherent_bias: float = 0.0
    per_qubit_readout: tuple[tuple[float, float], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not 0.0 <= self.success_probability <= 1.0:
            raise ValueError("success_probability must be within [0, 1]")
        for name in ("readout_p01", "readout_p10"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name}={value} outside [0, 1]")
        for p01, p10 in self.per_qubit_readout:
            if not (0.0 <= p01 <= 1.0 and 0.0 <= p10 <= 1.0):
                raise ValueError("per_qubit_readout probabilities outside [0, 1]")
        if not math.isfinite(self.coherent_bias):
            raise ValueError(f"coherent_bias must be finite (got {self.coherent_bias!r})")


def noisy_probabilities_batch(
    circuits: Sequence[QuantumCircuit] | ParameterSweep,
    noises: Sequence[MixingNoiseSpec],
    blocks: Sequence[int] | None = None,
) -> np.ndarray | list[np.ndarray]:
    """Analytic noisy outcome distributions for a whole device batch at once.

    The batch is first *lowered* (:func:`repro.engine.lower_batch`, the
    lowering the ideal backend shares) to ``(program, slot-angle matrix,
    representative, flat positions)`` groups — bound circuits partition by
    gate structure; a :class:`~repro.circuit.sweep.ParameterSweep` becomes
    **one** group, its templates merged into one program over all ``points x
    templates`` rows straight from the ``(points, P)`` matrix, binding
    nothing — and from there one tail serves both: a group is **one** bias
    scaling (per-circuit coherent biases scale rotation slots row-wise),
    **one** compiled program execution, one marginal, a single broadcast
    depolarizing mix against the uniform distribution, and one batched
    per-bit readout contraction.  Every step is row-wise, so row ``i`` of
    the result matches ``circuits[i]`` passed alone as a one-row batch to
    within ~1e-16 (the only difference is the GEMM batch shape inside the
    compiled engine) — far below the multinomial sampler's decision
    thresholds, which is why the seeded golden histories stay bit-exact; a
    sweep and its bound circuits agree to the same tolerance.

    Args:
        circuits: fully-bound circuits (any mix of structures), or a sweep.
        noises: one :class:`MixingNoiseSpec` per flat batch position — each
            evaluated at that position on the device clock by the caller.
        blocks: flat row counts of the independent jobs stacked in the batch;
            each job's rows are then bit-equal to that job passed alone.

    Returns:
        One measured-register distribution per position, in flat order: the
        ``(batch, 2**m)`` matrix itself when the batch lowered to a single
        group (every gradient job does), otherwise a list of vectors.
    """
    noises = list(noises)
    groups = lower_batch(circuits)
    if len(circuits) != len(noises):
        raise ValueError(
            f"{len(circuits)} circuits do not align with {len(noises)} noise specs"
        )

    out: list[np.ndarray | None] = [None] * len(noises)
    for program, thetas, circuit, indices in groups:
        specs = [noises[i] for i in indices]
        thetas = _bias_scaled(thetas, program.slot_gates, specs)
        if blocks is None:
            states = execute_program(program, thetas)
        else:  # how many of this group's (ascending) positions each job owns
            edges = np.searchsorted(indices, np.cumsum([0, *blocks]))
            states = execute_program(program, thetas, blocks=np.diff(edges).tolist())
        measured = circuit.measured_qubits or tuple(range(circuit.num_qubits))
        ideal = marginal_probabilities(states, measured, circuit.num_qubits)
        mixed = _mix_and_confuse(ideal, specs, len(measured))
        if len(specs) == len(noises):
            # One group holds the whole batch, in flat order.
            return mixed
        for row, index in enumerate(indices):
            out[index] = mixed[row]
    return out  # type: ignore[return-value]


def _bias_scaled(
    thetas: np.ndarray,
    slot_gates: Sequence[str],
    noises: Sequence[MixingNoiseSpec],
) -> np.ndarray:
    """Apply per-circuit coherent over-rotation biases to a slot-angle matrix.

    Row ``i`` is multiplied by ``(1 + bias_i)`` at every rotation slot and by
    1 elsewhere, so a row's scaled angles do not depend on the other rows.
    """
    biases = np.array([spec.coherent_bias for spec in noises], dtype=float)
    if not np.any(biases != 0.0):
        return thetas
    scale = np.ones((len(noises), len(slot_gates)), dtype=float)
    rotation = np.array([g in _ROTATION_GATES for g in slot_gates], dtype=bool)
    scale[:, rotation] = (1.0 + biases)[:, None]
    return thetas * scale


def _mix_and_confuse(
    ideal: np.ndarray,
    noises: Sequence[MixingNoiseSpec],
    num_bits: int,
) -> np.ndarray:
    """Depolarizing mix + readout confusion for a ``(batch, 2**m)`` stack."""
    success = np.array([spec.success_probability for spec in noises], dtype=float)
    uniform = np.full_like(ideal, 1.0 / ideal.shape[1])
    mixed = success[:, None] * ideal + (1.0 - success)[:, None] * uniform

    readouts = [_readout_pairs(spec, num_bits) for spec in noises]
    with_readout = [bool(pairs) for pairs in readouts]
    if not any(with_readout):
        return mixed
    if all(with_readout):
        # Every row's confusion matrices as one (bits, batch, 2, 2) array —
        # entry for entry what readout_confusion_matrix builds per pair.
        pairs = np.array(readouts, dtype=float)
        if not np.all((pairs >= 0.0) & (pairs <= 1.0)):
            raise ValueError("readout probability outside [0, 1]")
        p01, p10 = pairs[:, :, 0].T, pairs[:, :, 1].T
        confusion = np.empty((num_bits, len(noises), 2, 2), dtype=float)
        confusion[:, :, 0, 0] = 1 - p01
        confusion[:, :, 0, 1] = p10
        confusion[:, :, 1, 0] = p01
        confusion[:, :, 1, 1] = 1 - p10
        return apply_readout_error_batch(mixed, confusion)
    # Mixed batch (some circuits noiseless on readout): fall back row-wise so
    # a row with exact readout is left unrenormalized, the bits it gets in a
    # batch of its own.
    return np.stack(
        [
            apply_readout_error(row, _confusion_matrices(spec, num_bits)) if noisy else row
            for row, spec, noisy in zip(mixed, noises, with_readout)
        ]
    )


def _readout_pairs(
    noise: MixingNoiseSpec, num_bits: int
) -> tuple[tuple[float, float], ...]:
    """The ``(p01, p10)`` of each measured bit; empty when readout is exact."""
    if noise.per_qubit_readout:
        if len(noise.per_qubit_readout) < num_bits:
            raise ValueError("per_qubit_readout shorter than the measured register")
        return noise.per_qubit_readout[:num_bits]
    if noise.readout_p01 == 0.0 and noise.readout_p10 == 0.0:
        return ()
    return ((noise.readout_p01, noise.readout_p10),) * num_bits


def _confusion_matrices(noise: MixingNoiseSpec, num_bits: int) -> list[np.ndarray]:
    return [
        readout_confusion_matrix(p01, p10)
        for p01, p10 in _readout_pairs(noise, num_bits)
    ]
