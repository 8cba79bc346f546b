"""The noisy device backend: the channel/mixing execution path as a backend.

:class:`NoisyBackend` adapts one :class:`~repro.devices.qpu.QPU` to the
:class:`~repro.backends.base.ExecutionBackend` protocol.  It preserves the
analytic mixing semantics — per-circuit noise is evaluated at that circuit's
position on the device clock and samples are drawn from the device's RNG
stream in batch order, so seeded results are bit-exact with the pre-backend
execution code.  A batch is either bound circuits or an unbound
:class:`~repro.circuit.sweep.ParameterSweep` — a parameter-shift job
executes straight off its ``(points, P)`` shift matrix without binding a
single circuit.

A job executes **clock at submit, physics per wave**
(:meth:`~repro.devices.qpu.QPU.execute_batch`): ``run`` returns results
carrying the job's durations and clock metadata; its physics (the noise
record and each result's ``success_probability``, lowering by
:func:`repro.engine.lower_batch`, one program execution with per-circuit
coherent biases, depolarizing mix, readout confusion, shots) runs before
``run`` returns unless the caller parks it, as the cloud provider — which owns
one backend per endpoint — does (:meth:`~repro.cloud.provider.CloudProvider.resolve`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..circuit.circuit import QuantumCircuit
from ..circuit.sweep import ParameterSweep
from ..devices.qpu import QPU, CircuitFootprint, DeferredBatch
from ..simulator.result import ExecutionResult
from .base import check_shots, normalize_batch

__all__ = ["NoisyBackend"]


class NoisyBackend:
    """Execution backend running batches through one simulated QPU."""

    def __init__(self, qpu: QPU) -> None:
        self.qpu = qpu
        self.name = qpu.name

    def run(
        self,
        batch: QuantumCircuit | Sequence[QuantumCircuit] | ParameterSweep,
        shots: int = 8192,
        seed: int | None = None,
        *,
        footprint: CircuitFootprint | None = None,
        now: float = 0.0,
        rng: np.random.Generator | None = None,
        park: list[DeferredBatch] | None = None,
    ) -> list[ExecutionResult]:
        """Execute a batch with this device's current (drifting) noise.

        Args:
            batch: a bound circuit, a sequence of bound circuits, or an
                unbound :class:`~repro.circuit.sweep.ParameterSweep` (which
                reaches the device as-is: no circuit is ever bound).
            shots: measurement shots per circuit.
            seed: sampling seed for a fresh RNG (ignored when ``rng`` given;
                with neither, the device's own stream is used).
            footprint: structural cost of the transpiled form on this device;
                defaults to the logical footprint of the first circuit.
            now: simulation time the batch starts executing.
            rng: externally-owned RNG (the cloud endpoint's stream).
            park: when given, the physics half is appended here instead of
                running now (``counts`` stay ``None`` until its owner resolves).
        """
        check_shots(shots)
        batch = normalize_batch(batch)
        if footprint is None:
            first = batch.templates[0] if isinstance(batch, ParameterSweep) else batch[0]
            footprint = CircuitFootprint.from_circuit(first)
        if rng is None and seed is not None:
            rng = np.random.default_rng(seed)
        return self.qpu.execute_batch(batch, footprint, shots, now, rng, park)
