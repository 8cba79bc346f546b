"""Parameter-shift gradients.

The paper's client node (Algorithm 2) differentiates one parameter at a time
by the parameter-shift rule: evaluate the loss with the target parameter
shifted by +pi/2 (the *forward* circuit) and by -pi/2 (the *backward*
circuit); the derivative is half the difference.  This module provides the
shift bookkeeping, an exact (statevector) gradient used by tests and the
ideal baseline, and :func:`sampled_parameter_shift_gradient`, which ships the
full 2·P-point sweep to an :class:`~repro.backends.base.ExecutionBackend` as
one unbound :class:`~repro.circuit.sweep.ParameterSweep` — the shape the
compiled engine turns into a single stacked NumPy pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..backends.base import ExecutionBackend
from ..circuit.sweep import ParameterSweep
from ..hamiltonian.expectation import EnergyEstimator
from ..telemetry import TELEMETRY as _telemetry

__all__ = [
    "PARAMETER_SHIFT",
    "ShiftedPair",
    "shifted_parameter_vectors",
    "shifted_theta_matrix",
    "gradient_from_energies",
    "exact_parameter_shift_gradient",
    "exact_full_gradient",
    "parameter_shift_batch",
    "sampled_parameter_shift_gradient",
]

#: The canonical shift for gates generated by a Pauli operator (r = 1/2).
PARAMETER_SHIFT = math.pi / 2.0


@dataclass(frozen=True)
class ShiftedPair:
    """The forward/backward parameter vectors for one target parameter."""

    parameter_index: int
    forward: tuple[float, ...]
    backward: tuple[float, ...]
    shift: float = PARAMETER_SHIFT


def shifted_parameter_vectors(
    values: Sequence[float],
    parameter_index: int,
    shift: float = PARAMETER_SHIFT,
) -> ShiftedPair:
    """Build the +shift / -shift copies of a parameter vector."""
    values = [float(v) for v in values]
    if not 0 <= parameter_index < len(values):
        raise IndexError(
            f"parameter index {parameter_index} out of range for {len(values)} parameters"
        )
    forward = list(values)
    backward = list(values)
    forward[parameter_index] += shift
    backward[parameter_index] -= shift
    return ShiftedPair(
        parameter_index=parameter_index,
        forward=tuple(forward),
        backward=tuple(backward),
        shift=shift,
    )


def shifted_theta_matrix(
    values: Sequence[float],
    parameter_indices: Sequence[int] | None = None,
    shift: float = PARAMETER_SHIFT,
) -> np.ndarray:
    """Every point of a parameter-shift sweep as one ``(2·P, P)`` matrix.

    Rows are ordered ``[i0 forward, i0 backward, i1 forward, ...]`` — the
    same point order as :func:`parameter_shift_batch` — and feed zero-rebind
    execution (the ``theta`` of a :class:`~repro.circuit.sweep.ParameterSweep`,
    ``EnergyEstimator.exact_energy``) directly.
    """
    base = np.asarray([float(v) for v in values], dtype=float)
    indices = (
        list(parameter_indices)
        if parameter_indices is not None
        else list(range(base.size))
    )
    for index in indices:
        if not 0 <= index < base.size:
            raise IndexError(
                f"parameter index {index} out of range for {base.size} parameters"
            )
    points = np.repeat(base[None, :], 2 * len(indices), axis=0)
    for row, index in enumerate(indices):
        points[2 * row, index] += shift
        points[2 * row + 1, index] -= shift
    return points


def gradient_from_energies(energy_forward: float, energy_backward: float) -> float:
    """The parameter-shift derivative ``(E(+s) - E(-s)) / 2``."""
    return 0.5 * (float(energy_forward) - float(energy_backward))


def exact_parameter_shift_gradient(
    estimator: EnergyEstimator,
    values: Sequence[float],
    parameter_index: int,
    shift: float = PARAMETER_SHIFT,
) -> float:
    """Noise-free parameter-shift derivative for one parameter."""
    pair = shifted_parameter_vectors(values, parameter_index, shift)
    forward = estimator.exact_energy(pair.forward)
    backward = estimator.exact_energy(pair.backward)
    return gradient_from_energies(forward, backward)


def exact_full_gradient(
    estimator: EnergyEstimator,
    values: Sequence[float],
    shift: float = PARAMETER_SHIFT,
) -> np.ndarray:
    """Noise-free gradient over every parameter.

    The whole 2·P-point shift sweep is one :meth:`EnergyEstimator.exact_energy`
    pass — no per-point circuit binding — and every entry is bit-equal to
    :func:`exact_parameter_shift_gradient` at its index.
    """
    if not len(values):
        return np.empty(0, dtype=float)
    energies = estimator.exact_energy(shifted_theta_matrix(values, None, shift))
    return 0.5 * (energies[0::2] - energies[1::2])


def parameter_shift_batch(
    estimator: EnergyEstimator,
    values: Sequence[float],
    parameter_indices: Sequence[int] | None = None,
    shift: float = PARAMETER_SHIFT,
) -> list:
    """Every circuit of a parameter-shift sweep, as one flat batch.

    The batch is ordered ``[p0 forward groups..., p0 backward groups...,
    p1 forward groups..., ...]`` — 2·P·G structurally identical circuits
    differing only in bound values, the canonical batched-backend workload.
    """
    indices = (
        list(parameter_indices)
        if parameter_indices is not None
        else list(range(len(values)))
    )
    circuits = []
    for index in indices:
        pair = shifted_parameter_vectors(values, index, shift)
        circuits.extend(estimator.measurement_circuits(pair.forward))
        circuits.extend(estimator.measurement_circuits(pair.backward))
    return circuits


def sampled_parameter_shift_gradient(
    estimator: EnergyEstimator,
    values: Sequence[float],
    backend: ExecutionBackend,
    shots: int = 8192,
    seed: int | None = None,
    rng: np.random.Generator | None = None,
    parameter_indices: Sequence[int] | None = None,
    shift: float = PARAMETER_SHIFT,
) -> np.ndarray:
    """Sampled parameter-shift gradient through one backend batch.

    All forward/backward points for every requested parameter are submitted
    as one :class:`~repro.circuit.sweep.ParameterSweep` in a single
    :meth:`ExecutionBackend.run` call — one vectorized pass instead of 2·P
    sequential simulations, and no circuit is bound.

    Args:
        estimator: ansatz + Hamiltonian estimator.
        values: the parameter vector to differentiate at.
        backend: any execution backend (ideal or noisy).
        shots: measurement shots per circuit.
        seed: sampling seed forwarded to the backend.
        rng: externally-owned RNG forwarded to the backend (wins over seed).
        parameter_indices: subset of parameters (default: all).
        shift: the parameter-shift angle.

    Returns:
        The gradient over the requested parameters, in request order.
    """
    indices = (
        list(parameter_indices)
        if parameter_indices is not None
        else list(range(len(values)))
    )
    if not indices:
        return np.empty(0, dtype=float)
    if _telemetry.enabled:
        registry = _telemetry.registry
        registry.counter("vqa.gradient_sweeps").inc()
        registry.counter("vqa.gradient_parameters").inc(len(indices))
    # Zero-rebind: backends take the raw shift-point matrix and sample in the
    # same flat order the bound batch (:func:`parameter_shift_batch`) would
    # have used, so the RNG stream is consumed identically.
    results = backend.run(
        ParameterSweep(
            estimator.template_circuits(), shifted_theta_matrix(values, indices, shift)
        ),
        shots=shots,
        seed=seed,
        rng=rng,
    )
    groups = estimator.num_groups
    gradient = np.empty(len(indices), dtype=float)
    position = 0
    for slot, _ in enumerate(indices):
        forward = [r.counts for r in results[position : position + groups]]
        position += groups
        backward = [r.counts for r in results[position : position + groups]]
        position += groups
        gradient[slot] = gradient_from_energies(
            estimator.energy_from_counts(forward),
            estimator.energy_from_counts(backward),
        )
    return gradient
