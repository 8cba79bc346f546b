"""The looped statevector simulator: bind the circuit, then moveaxis per gate.

Every gate moves its target axes to the front of the ``[2] * n`` tensor,
multiplies by the unitary and moves them back.  ``repro.simulator.statevector``
must reproduce it byte for byte (tests/test_properties/test_simulator_properties.py).
"""

import numpy as np

from repro.circuit.gates import gate_matrix


def apply_matrix(vec, matrix, qubits, num_qubits):
    src, dest = list(qubits), list(range(len(qubits)))
    tensor = np.moveaxis(vec.reshape([2] * num_qubits), src, dest)
    tensor = matrix @ tensor.reshape(1 << len(qubits), -1)
    tensor = np.moveaxis(tensor.reshape([2] * num_qubits), dest, src)
    return np.ascontiguousarray(tensor.reshape(-1))


def simulate(circuit, parameter_values=None):
    """Final amplitude vector of ``circuit`` (measurements ignored)."""
    bound = circuit if circuit.is_bound else circuit.bind_parameters(parameter_values or {})
    if not bound.is_bound:
        raise ValueError("unbound parameters remain")
    vec = np.zeros(1 << bound.num_qubits, dtype=complex)
    vec[0] = 1.0
    for inst in bound:
        if inst.is_unitary:
            matrix = gate_matrix(inst.name, tuple(float(p) for p in inst.params))
            vec = apply_matrix(vec, matrix, inst.qubits, bound.num_qubits)
    return vec


def exact_energy(estimator, values):
    """``<psi|H|psi>`` of an ``EnergyEstimator``'s ansatz at ``values``."""
    vec = simulate(estimator.ansatz.without_measurements(), estimator.bindings(values))
    return float(np.real(np.vdot(vec, estimator.hamiltonian.to_matrix() @ vec)))
