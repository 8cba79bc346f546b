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

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .._fields import require
from ..circuit.circuit import QuantumCircuit
from ..circuit.sweep import ParameterSweep
from ..engine import execute_program, lower_batch, marginal_probabilities
from .sampler import apply_readout_error_batch

__all__ = ["MixingNoiseSpec", "NoiseRecord", "noisy_probabilities_batch"]

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
        for name in ("success_probability", "readout_p01", "readout_p10"):
            require(self, name, getattr(self, name), low=0.0, high=1.0)
        for pair in self.per_qubit_readout:
            for p in pair:
                require(self, "per_qubit_readout", p, low=0.0, high=1.0)
        require(self, "coherent_bias", self.coherent_bias)


@dataclass(frozen=True, eq=False)
class NoiseRecord:
    """The noise of a whole batch as arrays, one row per flat position.

    ``success`` and ``bias`` are ``(k,)``; ``readout`` is ``(k, m, 2)``, the
    ``(p01, p10)`` of the first ``m`` measured bits; ``exact`` is ``(k,)``
    and marks rows read out exactly (no confusion, no renormalization).  A
    wave of device jobs gets one at resolve, built from the jobs' clock rows
    (:func:`repro.devices.qpu.resolve_batches`); the mixer range-checks
    each array once, where it reads it.
    """

    success: np.ndarray
    bias: np.ndarray
    readout: np.ndarray
    exact: np.ndarray

    def __len__(self) -> int:
        return len(self.success)

    @classmethod
    def from_specs(cls, specs: Sequence[MixingNoiseSpec], num_bits: int) -> "NoiseRecord":
        """The record of ``specs`` read out on a ``num_bits``-bit register."""
        pairs = [_readout_pairs(spec, num_bits) for spec in specs]
        readout = [row or ((0.0, 0.0),) * num_bits for row in pairs]
        return cls(
            np.array([spec.success_probability for spec in specs], dtype=float),
            np.array([spec.coherent_bias for spec in specs], dtype=float),
            np.array(readout, dtype=float).reshape(len(specs), num_bits, 2),
            np.array([not row for row in pairs], dtype=bool),
        )

    def take(self, rows: Sequence[int]) -> "NoiseRecord":
        """The record of the positions ``rows`` (one lowered group's)."""
        return NoiseRecord(*(column[rows] for column in self._columns()))

    def specs(self) -> list[MixingNoiseSpec]:
        """One :class:`MixingNoiseSpec` per row, readout per qubit."""
        return [
            MixingNoiseSpec(
                success,
                coherent_bias=bias,
                per_qubit_readout=() if exact else tuple(map(tuple, readout)),
            )
            for success, bias, readout, exact in zip(*(c.tolist() for c in self._columns()))
        ]

    def _columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return self.success, self.bias, self.readout, self.exact


def noisy_probabilities_batch(
    circuits: Sequence[QuantumCircuit] | ParameterSweep,
    noise: NoiseRecord | Sequence[MixingNoiseSpec],
    blocks: Sequence[int] | None = None,
) -> np.ndarray | list[np.ndarray]:
    """Analytic noisy outcome distributions for a whole device batch at once.

    The batch is first *lowered* (:func:`repro.engine.lower_batch`, the
    lowering the ideal backend shares) to ``(program, slot-angle matrix,
    representative, flat positions)`` groups — bound circuits partition by
    gate structure; a :class:`~repro.circuit.sweep.ParameterSweep` becomes
    **one** group, its templates merged into one program over all ``points x
    templates`` rows straight from the ``(points, P)`` matrix, binding
    nothing — and from there one tail serves both: a group's rows of the
    :class:`NoiseRecord` are range-checked once per array, then the group is
    **one** bias scaling (per-circuit coherent biases scale rotation slots
    row-wise), **one** compiled program execution, one marginal, a single
    broadcast depolarizing mix against the uniform distribution, and one
    batched per-bit readout contraction.  Every step is row-wise, so row
    ``i`` of the result matches ``circuits[i]`` passed alone as a one-row
    batch to within ~1e-16 (the only difference is the GEMM batch shape
    inside the compiled engine) — far below the multinomial sampler's
    decision thresholds, which is why the seeded golden histories stay
    bit-exact; a sweep and its bound circuits agree to the same tolerance.

    Args:
        circuits: fully-bound circuits (any mix of structures), or a sweep.
        noise: the :class:`NoiseRecord` of the flat batch — row ``i``
            evaluated at position ``i`` on the device clock by the caller —
            or one :class:`MixingNoiseSpec` per position, turned into a
            record once per lowered group.
        blocks: flat row counts of the independent jobs stacked in the batch;
            each job's rows are then bit-equal to that job passed alone.

    Returns:
        One measured-register distribution per position, in flat order: the
        ``(batch, 2**m)`` matrix itself when the batch lowered to a single
        group (every gradient job does), otherwise a list of vectors.
    """
    groups = lower_batch(circuits)
    if not isinstance(noise, NoiseRecord):
        noise = list(noise)
    if len(circuits) != len(noise):
        raise ValueError(
            f"{len(circuits)} circuits do not align with {len(noise)} noise specs"
        )

    out: list[np.ndarray | None] = [None] * len(noise)
    for program, thetas, circuit, indices in groups:
        measured = circuit.measured_qubits or tuple(range(circuit.num_qubits))
        num_bits = len(measured)
        whole = len(indices) == len(noise)
        if not isinstance(noise, NoiseRecord):
            record = NoiseRecord.from_specs([noise[i] for i in indices], num_bits)
        else:
            record = noise if whole else noise.take(indices)
        readout = _checked_readout(record, num_bits)
        thetas = _bias_scaled(thetas, program.slot_gates, record.bias)
        if blocks is None:
            states = execute_program(program, thetas)
        else:  # how many of this group's (ascending) positions each job owns
            edges = np.searchsorted(indices, np.cumsum([0, *blocks]))
            states = execute_program(program, thetas, blocks=np.diff(edges).tolist())
        ideal = marginal_probabilities(states, measured, circuit.num_qubits)
        mixed = _mix_and_confuse(ideal, record, readout)
        if whole:
            # One group holds the whole batch, in flat order.
            return mixed
        for row, index in enumerate(indices):
            out[index] = mixed[row]
    return out  # type: ignore[return-value]


def _checked_readout(record: NoiseRecord, num_bits: int) -> np.ndarray:
    """Range-check a group's record; its ``(k, num_bits, 2)`` readout."""
    if record.readout.shape[1] < num_bits:
        raise ValueError("per_qubit_readout shorter than the measured register")
    readout = record.readout[:, :num_bits]
    # A NaN fails every comparison, so min/max reject it too.
    if not (record.success.min() >= 0.0 and record.success.max() <= 1.0):
        raise ValueError("success_probability outside [0, 1]")
    if not np.isfinite(record.bias).all():
        raise ValueError("coherent_bias must be finite")
    if not (readout.min() >= 0.0 and readout.max() <= 1.0):
        raise ValueError("readout probability outside [0, 1]")
    return readout


def _bias_scaled(
    thetas: np.ndarray, slot_gates: tuple[str, ...], biases: np.ndarray
) -> np.ndarray:
    """Apply per-circuit coherent over-rotation biases to a slot-angle matrix.

    Row ``i`` is multiplied by ``(1 + bias_i)`` at every rotation slot and by
    1 elsewhere, so a row's scaled angles do not depend on the other rows.
    """
    if not biases.any():
        return thetas
    scale = np.ones((len(biases), len(slot_gates)), dtype=float)
    scale[:, _rotation_slots(slot_gates)] = (1.0 + biases)[:, None]
    return thetas * scale


@lru_cache(maxsize=256)
def _rotation_slots(slot_gates: tuple[str, ...]) -> np.ndarray:
    """Read-only mask of the slots whose gate the coherent bias scales."""
    mask = np.array([g in _ROTATION_GATES for g in slot_gates], dtype=bool)
    mask.setflags(write=False)
    return mask


def _mix_and_confuse(
    ideal: np.ndarray, record: NoiseRecord, readout: np.ndarray
) -> np.ndarray:
    """Depolarizing mix + readout confusion for a ``(batch, 2**m)`` stack.

    Rows read out exactly are left as mixed, unrenormalized: the bits they
    get in a batch of their own.
    """
    success = record.success[:, None]
    # Each row's uniform share is one scalar product, broadcast over the row.
    mixed = success * ideal + (1.0 - success) * (1.0 / ideal.shape[1])
    confused = ~record.exact
    if confused.all():
        return _confused(mixed, readout)
    if confused.any():
        mixed[confused] = _confused(mixed[confused], readout[confused])
    return mixed


def _confused(probabilities: np.ndarray, readout: np.ndarray) -> np.ndarray:
    """Every row's confusion matrices as one ``(bits, batch, 2, 2)`` array,
    ``[[1 - p01, p10], [p01, 1 - p10]]`` per bit, contracted in one pass."""
    p01, p10 = readout[:, :, 0].T, readout[:, :, 1].T
    confusion = np.empty(p01.shape + (2, 2), dtype=float)
    confusion[:, :, 0, 0] = 1 - p01
    confusion[:, :, 0, 1] = p10
    confusion[:, :, 1, 0] = p01
    confusion[:, :, 1, 1] = 1 - p10
    return apply_readout_error_batch(probabilities, confusion)


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
