"""The sequential ideal backend, now running compiled gate programs.

This backend retains the *semantics* of the historical per-circuit path —
circuits simulate and sample one at a time, in input order, off a single RNG
stream — but each circuit executes through the compiled engine
(:mod:`repro.engine`) as a batch of one, so repeated structures (every
parameter-shift sweep) compile once and skip the per-gate Python overhead.
The looped :func:`~repro.simulator.statevector.simulate_statevector` remains
the bit-level reference implementation the engine is validated against.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..circuit.circuit import QuantumCircuit
from ..circuit.sweep import ParameterSweep
from ..engine import execute_program, marginal_probabilities, slot_values_from_circuits
from ..engine.cache import ProgramCache, shared_program_cache
from ..simulator.result import ExecutionResult
from ..simulator.sampler import sample_distribution
from .base import ParameterBinding, measured_register, normalize_batch, unbound_sweep
from .batched import sampled_sweep_results

__all__ = ["StatevectorBackend"]


class StatevectorBackend:
    """Ideal (noise-free) backend executing each circuit sequentially."""

    def __init__(
        self,
        name: str = "statevector",
        program_cache: ProgramCache | None = None,
    ) -> None:
        self.name = name
        self.program_cache = (
            program_cache if program_cache is not None else shared_program_cache()
        )

    def _circuit_probabilities(self, circuit: QuantumCircuit) -> np.ndarray:
        program = self.program_cache.get_or_compile(circuit)
        thetas = slot_values_from_circuits(program, [circuit])
        states = execute_program(program, thetas)
        measured = measured_register(circuit)
        return marginal_probabilities(states, measured, circuit.num_qubits)[0]

    def run(
        self,
        circuits: QuantumCircuit | Sequence[QuantumCircuit] | ParameterSweep,
        parameter_bindings: Sequence[ParameterBinding] | None = None,
        shots: int = 8192,
        seed: int | None = None,
        rng: np.random.Generator | None = None,
        **_context,
    ) -> list[ExecutionResult]:
        """Simulate and sample every circuit in input order.

        Device context (``footprint``, ``now``) is accepted and ignored so an
        ideal backend can serve a cloud endpoint directly.

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
        bound = normalize_batch(circuits, parameter_bindings)
        rng = rng if rng is not None else np.random.default_rng(seed)
        results: list[ExecutionResult] = []
        for circuit in bound:
            measured = measured_register(circuit)
            probs = self._circuit_probabilities(circuit)
            counts = sample_distribution(probs, shots, rng, num_bits=len(measured))
            results.append(
                ExecutionResult(counts=counts, shots=shots, backend_name=self.name)
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
        """Execute a zero-rebind parameter sweep (see the batched backend).

        Sampling stays strictly sequential in point-major order, so the RNG
        stream is consumed exactly as if each bound circuit had been
        submitted through :meth:`run` one by one.  Device context is accepted
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
        )

    def probabilities(self, circuits: Sequence[QuantumCircuit]) -> list[np.ndarray]:
        """Exact measured-register distributions, one circuit at a time."""
        return [self._circuit_probabilities(circuit) for circuit in circuits]
