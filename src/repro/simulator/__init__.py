"""Quantum circuit simulators: ideal statevector, analytic noisy mixing, sampling."""

from .mixing import MixingNoiseSpec, noisy_probabilities_batch
from .result import Counts, ExecutionResult
from .sampler import (
    apply_readout_error,
    apply_readout_error_batch,
    readout_confusion_matrix,
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
    "readout_confusion_matrix",
    "sample_distribution",
    "sample_distribution_batch",
    "sample_statevector",
    "sample_circuit_ideal",
    "apply_readout_error",
    "apply_readout_error_batch",
    "MixingNoiseSpec",
    "noisy_probabilities_batch",
]
