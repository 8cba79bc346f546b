"""Tests for basis-gate decomposition, including unitary equivalence."""

import numpy as np
import pytest
from _reference import statevector as reference

from repro.circuit import BASIS_GATES, Parameter, QuantumCircuit
from repro.circuit.gates import GATE_SPECS
from repro.simulator.statevector import Statevector
from repro.transpiler.decompose import decompose_to_basis


def circuit_unitary(circuit: QuantumCircuit) -> np.ndarray:
    """Brute-force unitary of a small bound circuit (columns = basis images)."""
    dim = 1 << circuit.num_qubits
    columns = []
    for index in range(dim):
        amplitudes = np.zeros(dim, dtype=complex)
        amplitudes[index] = 1.0
        state = reference.run_gate_by_gate(Statevector(circuit.num_qubits, amplitudes), circuit)
        columns.append(state.data)
    return np.array(columns).T


def assert_equivalent_up_to_phase(a: np.ndarray, b: np.ndarray) -> None:
    index = np.unravel_index(np.argmax(np.abs(a)), a.shape)
    assert abs(a[index]) > 1e-9
    phase = b[index] / a[index]
    assert abs(abs(phase) - 1.0) < 1e-9
    assert np.allclose(a * phase, b, atol=1e-9)


def single_gate_circuit(name: str, theta: float = 0.7) -> QuantumCircuit:
    spec = GATE_SPECS[name]
    qc = QuantumCircuit(spec.num_qubits)
    params = [theta] * spec.num_params
    qc.add_gate(name, list(range(spec.num_qubits)), params)
    return qc


NON_BASIS_UNITARIES = ["h", "y", "z", "s", "sdg", "t", "rx", "ry", "cz", "swap", "rzz"]


class TestUnitaryEquivalence:
    @pytest.mark.parametrize("name", NON_BASIS_UNITARIES)
    def test_decomposition_preserves_unitary(self, name):
        circuit = single_gate_circuit(name)
        decomposed = decompose_to_basis(circuit)
        assert_equivalent_up_to_phase(circuit_unitary(circuit), circuit_unitary(decomposed))

    @pytest.mark.parametrize("theta", [0.0, 0.3, 1.0, np.pi, -1.7, 2 * np.pi])
    def test_ry_decomposition_across_angles(self, theta):
        circuit = single_gate_circuit("ry", theta)
        decomposed = decompose_to_basis(circuit)
        assert_equivalent_up_to_phase(circuit_unitary(circuit), circuit_unitary(decomposed))

    def test_composite_circuit(self):
        qc = QuantumCircuit(3)
        qc.h(0).ry(0.4, 1).cx(0, 1).rzz(0.9, 1, 2).swap(0, 2).rx(1.1, 2)
        decomposed = decompose_to_basis(qc)
        assert_equivalent_up_to_phase(circuit_unitary(qc), circuit_unitary(decomposed))


class TestBasisAlphabet:
    def test_output_contains_only_basis_gates_and_directives(self):
        qc = QuantumCircuit(3)
        qc.h(0).ry(0.4, 1).cz(0, 1).swap(1, 2).measure_all()
        decomposed = decompose_to_basis(qc)
        allowed = set(BASIS_GATES) | {"measure", "barrier"}
        assert {inst.name for inst in decomposed} <= allowed

    def test_basis_gates_pass_through(self):
        qc = QuantumCircuit(2).x(0).sx(1).rz(0.3, 0).cx(0, 1)
        decomposed = decompose_to_basis(qc)
        assert [i.name for i in decomposed] == ["x", "sx", "rz", "cx"]

    def test_measurements_preserved(self):
        qc = QuantumCircuit(2).h(0).measure_all()
        assert decompose_to_basis(qc).num_measurements == 2

    def test_parameterized_gates_stay_parameterized(self):
        p = Parameter("a")
        qc = QuantumCircuit(1).ry(p, 0)
        decomposed = decompose_to_basis(qc)
        assert decomposed.parameters == frozenset({p})
        # binding after decomposition matches binding before decomposition
        bound_after = decomposed.bind_parameters({p: 0.8})
        bound_before = decompose_to_basis(qc.bind_parameters({p: 0.8}))
        assert_equivalent_up_to_phase(
            circuit_unitary(bound_before), circuit_unitary(bound_after)
        )

    def test_swap_costs_three_cnots(self):
        qc = QuantumCircuit(2).swap(0, 1)
        decomposed = decompose_to_basis(qc)
        assert decomposed.count_ops()["cx"] == 3
