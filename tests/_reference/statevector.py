"""The looped statevector simulators ``repro.simulator.statevector`` must
reproduce byte for byte.

``simulate`` binds the circuit, then moves each gate's target axes to the
front of the ``[2] * n`` tensor, multiplies by the unitary and moves them back
(tests/test_properties/test_simulator_properties.py).  ``run_gate_by_gate``
is the loop ``simulate_statevector`` ran before its dense plan: one
``Statevector.apply_gate`` per unitary, each angle resolved as it is applied
(tests/test_simulator/test_dense_plan.py).
"""

import numpy as np

from repro.circuit.gates import gate_matrix
from repro.circuit.parameters import bind_value


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


def run_gate_by_gate(state, circuit, parameter_values=None):
    """Apply ``circuit``'s unitaries to the ``Statevector`` ``state`` in place,
    one ``apply_gate`` each (measurements and barriers skipped)."""
    values = parameter_values or {}
    for inst in circuit.instructions:
        if inst.is_unitary:
            state.apply_gate(inst.name, inst.qubits, tuple(bind_value(p, values) for p in inst.params))
    return state
