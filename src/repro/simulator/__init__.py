"""Quantum circuit simulators: ideal statevector, Kraus trajectories, fast mixing."""

from .channels import (
    KrausChannel,
    amplitude_damping_channel,
    bit_flip_channel,
    depolarizing_channel,
    phase_damping_channel,
    readout_confusion_matrix,
    thermal_relaxation_channel,
    two_qubit_depolarizing_channel,
)
from .mixing import (
    MixingNoiseSpec,
    apply_coherent_bias,
    execute_with_mixing,
    noisy_probabilities,
    noisy_probabilities_batch,
)
from .result import Counts, ExecutionResult
from .sampler import (
    apply_readout_error,
    apply_readout_error_batch,
    distribution_to_counts,
    sample_circuit_ideal,
    sample_distribution,
    sample_distribution_batch,
    sample_statevector,
)
from .statevector import Statevector, simulate_statevector
from .trajectory import (
    MonteCarloSimulator,
    TrajectoryNoiseSpec,
    density_matrix_probabilities,
)

__all__ = [
    "Statevector",
    "simulate_statevector",
    "Counts",
    "ExecutionResult",
    "KrausChannel",
    "depolarizing_channel",
    "two_qubit_depolarizing_channel",
    "amplitude_damping_channel",
    "phase_damping_channel",
    "bit_flip_channel",
    "thermal_relaxation_channel",
    "readout_confusion_matrix",
    "sample_distribution",
    "sample_distribution_batch",
    "sample_statevector",
    "sample_circuit_ideal",
    "apply_readout_error",
    "apply_readout_error_batch",
    "distribution_to_counts",
    "MixingNoiseSpec",
    "apply_coherent_bias",
    "execute_with_mixing",
    "noisy_probabilities",
    "noisy_probabilities_batch",
    "MonteCarloSimulator",
    "TrajectoryNoiseSpec",
    "density_matrix_probabilities",
]
