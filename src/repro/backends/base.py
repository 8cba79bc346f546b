"""The :class:`ExecutionBackend` protocol and batch validation helpers.

Every execution engine in the library — the ideal statevector backend and the
noisy device path — implements one entry point::

    backend.run(batch, shots, seed, **context) -> list[ExecutionResult]

``batch`` is one bound circuit, a sequence of bound circuits, or an unbound
:class:`~repro.circuit.sweep.ParameterSweep` (templates times a ``(points,
P)`` parameter matrix — the shape an EQC gradient job travels in; no circuit
is bound anywhere below the objective).  One result comes back per circuit
the batch stands for, in flat order (a sweep's is point-major with templates
inner), sampled from one RNG stream in that order.
"""

from __future__ import annotations

from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from ..circuit.circuit import QuantumCircuit
from ..circuit.sweep import ParameterSweep
from ..simulator.result import ExecutionResult

__all__ = [
    "ExecutionBackend",
    "check_shots",
    "normalize_batch",
    "measured_register",
]


@runtime_checkable
class ExecutionBackend(Protocol):
    """Uniform execution interface over the ideal and noisy engines.

    Implementations may accept additional keyword-only context (a device
    footprint, a simulation timestamp), but every backend understands the
    core arguments.
    """

    name: str

    def run(
        self,
        batch: QuantumCircuit | Sequence[QuantumCircuit] | ParameterSweep,
        shots: int = 8192,
        seed: int | None = None,
        *,
        rng: np.random.Generator | None = None,
        **context,
    ) -> list[ExecutionResult]:
        """Execute a batch and return one result per circuit it stands for.

        ``rng`` is an externally-owned sampling stream and takes precedence
        over ``seed``.
        """
        ...


def check_shots(shots: int) -> None:
    """Reject a shot count no sampler can honour, before any RNG is touched."""
    if shots < 1:
        raise ValueError("shots must be >= 1")


def normalize_batch(
    batch: QuantumCircuit | Sequence[QuantumCircuit] | ParameterSweep,
) -> list[QuantumCircuit] | ParameterSweep:
    """A backend batch as a non-empty list of bound circuits, or the sweep.

    A :class:`ParameterSweep` validated itself at construction and passes
    through untouched.

    Raises:
        ValueError: on an empty batch or circuits with unbound parameters.
    """
    if isinstance(batch, ParameterSweep):
        return batch
    circuits = [batch] if isinstance(batch, QuantumCircuit) else list(batch)
    if not circuits:
        raise ValueError("a backend batch needs at least one circuit")
    for circuit in circuits:
        if not circuit.is_bound:
            missing = ", ".join(sorted(p.name for p in circuit.parameters))
            raise ValueError(f"unbound parameters remain: {missing}")
    return circuits


def measured_register(circuit: QuantumCircuit) -> tuple[int, ...]:
    """The qubits a backend samples: explicit measurements, else all qubits."""
    return circuit.measured_qubits or tuple(range(circuit.num_qubits))
