"""The :class:`ExecutionBackend` protocol and batch normalization helpers.

Every execution engine in the library — the ideal statevector simulator, the
vectorized batch engine, and the noisy device path — implements one uniform
entry point::

    backend.run(circuits, parameter_bindings, shots, seed) -> list[ExecutionResult]

``circuits`` may be a single circuit, a sequence, or an unbound
:class:`~repro.circuit.sweep.ParameterSweep` (templates times a ``(points,
P)`` parameter matrix — the shape an EQC gradient job travels in; no circuit
is bound anywhere below the objective); ``parameter_bindings`` lets callers
ship one *template* circuit together with many parameter bindings (the
parameter-shift pattern: 2·P structurally identical circuits that differ only
in bound values), which is what the batched engine exploits.
``backend.run_sweep(templates, theta_matrix, ...)`` is shorthand for running
``ParameterSweep(templates, theta_matrix)`` and takes the same keyword
context ``run`` does.

Binding semantics
-----------------
* ``parameter_bindings is None`` — every circuit must already be bound.
* one circuit, N bindings — the template is broadcast across the bindings
  (N executions).
* N circuits, N bindings — bound pairwise.

Each binding is either a ``Mapping[Parameter, float]`` or a flat sequence of
floats assigned in first-appearance order (``assign_by_order``).
"""

from __future__ import annotations

from typing import Mapping, Protocol, Sequence, runtime_checkable

import numpy as np

from ..circuit.circuit import QuantumCircuit
from ..circuit.sweep import ParameterSweep
from ..simulator.result import ExecutionResult

__all__ = [
    "ExecutionBackend",
    "ParameterBinding",
    "normalize_batch",
    "unbound_sweep",
    "measured_register",
]

#: One set of parameter values for a circuit template.
ParameterBinding = Mapping | Sequence


@runtime_checkable
class ExecutionBackend(Protocol):
    """Uniform execution interface over ideal, batched, and noisy engines.

    Implementations may accept additional keyword-only context (a device
    footprint, a simulation timestamp, an externally-owned RNG), but every
    backend understands the four core arguments.
    """

    name: str

    def run(
        self,
        circuits: QuantumCircuit | Sequence[QuantumCircuit] | ParameterSweep,
        parameter_bindings: Sequence[ParameterBinding] | None = None,
        shots: int = 8192,
        seed: int | None = None,
        **context,
    ) -> list[ExecutionResult]:
        """Execute a batch of circuits and return one result per circuit."""
        ...

    def run_sweep(
        self,
        templates: Sequence[QuantumCircuit],
        theta_matrix: np.ndarray,
        shots: int = 8192,
        seed: int | None = None,
        **context,
    ) -> list[ExecutionResult]:
        """Execute ``templates`` at every row of ``theta_matrix``, unbound.

        One result per (point, template), point-major with templates inner;
        ``context`` is the same keyword context :meth:`run` accepts.
        """
        ...


def _bind(template: QuantumCircuit, binding: ParameterBinding) -> QuantumCircuit:
    """Bind one template with either a mapping or an ordered value vector."""
    if isinstance(binding, Mapping):
        return template.bind_parameters(binding)
    return template.assign_by_order([float(v) for v in binding])


def unbound_sweep(
    circuits: object, parameter_bindings: Sequence[ParameterBinding] | None
) -> ParameterSweep | None:
    """``circuits`` when it is a :class:`ParameterSweep`, else ``None``.

    Raises:
        ValueError: when bindings accompany a sweep (it carries its own
            parameter matrix).
    """
    if not isinstance(circuits, ParameterSweep):
        return None
    if parameter_bindings is not None:
        raise ValueError("a ParameterSweep carries its own parameter matrix")
    return circuits


def normalize_batch(
    circuits: QuantumCircuit | Sequence[QuantumCircuit],
    parameter_bindings: Sequence[ParameterBinding] | None = None,
) -> list[QuantumCircuit]:
    """Resolve the (circuits, bindings) calling conventions into bound circuits.

    Raises:
        ValueError: on an empty batch, a circuits/bindings length mismatch, or
            circuits left with unbound parameters.
    """
    if isinstance(circuits, QuantumCircuit):
        circuits = [circuits]
    else:
        circuits = list(circuits)
    if not circuits:
        raise ValueError("a backend batch needs at least one circuit")

    if parameter_bindings is None:
        bound = circuits
    else:
        bindings = list(parameter_bindings)
        if not bindings:
            raise ValueError("parameter_bindings must not be empty when given")
        if len(circuits) == 1 and len(bindings) != 1:
            bound = [_bind(circuits[0], b) for b in bindings]
        elif len(circuits) == len(bindings):
            bound = [_bind(c, b) for c, b in zip(circuits, bindings)]
        else:
            raise ValueError(
                f"cannot align {len(circuits)} circuits with "
                f"{len(bindings)} parameter bindings"
            )

    for circuit in bound:
        if not circuit.is_bound:
            missing = ", ".join(sorted(p.name for p in circuit.parameters))
            raise ValueError(f"unbound parameters remain after binding: {missing}")
    return bound


def measured_register(circuit: QuantumCircuit) -> tuple[int, ...]:
    """The qubits a backend samples: explicit measurements, else all qubits."""
    return circuit.measured_qubits or tuple(range(circuit.num_qubits))
