"""Quantum circuit intermediate representation and ansatz library."""

from .circuit import QuantumCircuit
from .gates import BASIS_GATES, GATE_SPECS, Instruction, gate_matrix, is_two_qubit
from .library import (
    ghz_state,
    hardware_efficient_ansatz,
    linear_entangler_demo,
    qaoa_maxcut_ansatz,
    qnn_encoder_ansatz,
)
from .parameters import Parameter, ParameterExpression, ParameterVector, bind_value
from .sweep import ParameterSweep

__all__ = [
    "QuantumCircuit",
    "ParameterSweep",
    "Instruction",
    "GATE_SPECS",
    "BASIS_GATES",
    "gate_matrix",
    "is_two_qubit",
    "Parameter",
    "ParameterExpression",
    "ParameterVector",
    "bind_value",
    "hardware_efficient_ansatz",
    "qaoa_maxcut_ansatz",
    "ghz_state",
    "linear_entangler_demo",
    "qnn_encoder_ansatz",
]
