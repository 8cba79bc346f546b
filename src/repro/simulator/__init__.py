"""Quantum circuit simulators: ideal statevector, analytic noisy mixing, sampling."""

from .mixing import MixingNoiseSpec, NoiseRecord, noisy_probabilities_batch
from .result import Counts, ExecutionResult
from .sampler import (
    apply_readout_error_batch,
    sample_circuit_ideal,
    sample_distribution,
    sample_distribution_batch,
    sample_statevector,
)
from .statevector import Statevector, simulate_statevector

__all__ = [
    "Statevector",
    "simulate_statevector",
    "Counts",
    "ExecutionResult",
    "sample_distribution",
    "sample_distribution_batch",
    "sample_statevector",
    "sample_circuit_ideal",
    "apply_readout_error_batch",
    "MixingNoiseSpec",
    "NoiseRecord",
    "noisy_probabilities_batch",
]
