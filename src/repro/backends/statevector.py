"""The ideal backend: compiled gate programs over whole batches.

A batch is lowered once (:func:`repro.engine.lower_batch` — bound circuits
partition by gate structure, an unbound
:class:`~repro.circuit.sweep.ParameterSweep` becomes one merged program over
its raw parameter matrix), each group runs as one compiled-program pass over
a ``(rows, 2**n)`` state stack, and counts are sampled in the batch's flat
order off a single RNG stream — so a sweep and its bound circuits consume a
seeded stream identically.  Gate semantics are those of the gate-by-gate
:func:`~repro.simulator.statevector.simulate_statevector`, the reference the
engine is validated against: the same bit ordering, with each gate there a
gather of the amplitudes into a ``(2**k, rest)`` block, one product with the
unitary and a scatter back (the engine instead fuses gates and runs
precompiled contractions over the whole state stack; probabilities agree to
~1e-15, the equivalence suite asserts <=1e-10).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..circuit.circuit import QuantumCircuit
from ..circuit.sweep import ParameterSweep
from ..engine import execute_program, lower_batch, marginal_probabilities
from ..simulator.result import ExecutionResult
from ..simulator.sampler import sample_distribution
from .base import check_shots, measured_register, normalize_batch

__all__ = ["StatevectorBackend"]


class StatevectorBackend:
    """Ideal (noise-free) execution backend.

    It runs the sampled :class:`~repro.baselines.ideal.IdealTrainer`; every
    cloud device endpoint runs a :class:`~repro.backends.noisy.NoisyBackend`.
    """

    def __init__(self, name: str = "statevector") -> None:
        self.name = name

    def _distributions(
        self, batch: Sequence[QuantumCircuit] | ParameterSweep
    ) -> tuple[list[np.ndarray], int]:
        """Measured-register distributions in flat order, and the group count."""
        groups = lower_batch(batch)
        out: list[np.ndarray | None] = [None] * len(batch)
        for program, thetas, circuit, positions in groups:
            states = execute_program(program, thetas)
            probabilities = marginal_probabilities(
                states, measured_register(circuit), circuit.num_qubits
            )
            for row, position in zip(probabilities, positions):
                out[position] = row
        return out, len(groups)  # type: ignore[return-value]

    def run(
        self,
        batch: QuantumCircuit | Sequence[QuantumCircuit] | ParameterSweep,
        shots: int = 8192,
        seed: int | None = None,
        *,
        rng: np.random.Generator | None = None,
    ) -> list[ExecutionResult]:
        """Execute a batch ideally; one compiled pass per lowered group.

        Args:
            batch: a bound circuit, a sequence of bound circuits, or an
                unbound :class:`~repro.circuit.sweep.ParameterSweep`.
            shots: measurement shots per circuit.
            seed: sampling seed (ignored when ``rng`` is given).
            rng: externally-owned RNG; takes precedence over ``seed``.
        """
        check_shots(shots)
        probabilities, groups = self._distributions(normalize_batch(batch))
        rng = rng if rng is not None else np.random.default_rng(seed)
        metadata = {"batch_size": len(probabilities), "structure_groups": groups}
        return [
            ExecutionResult(
                counts=sample_distribution(
                    row, shots, rng, num_bits=row.size.bit_length() - 1
                ),
                shots=shots,
                backend_name=self.name,
                metadata=dict(metadata),
            )
            for row in probabilities
        ]

    def probabilities(
        self, batch: Sequence[QuantumCircuit] | ParameterSweep
    ) -> list[np.ndarray]:
        """Exact measured-register distributions of a batch, in flat order."""
        return self._distributions(batch)[0]
