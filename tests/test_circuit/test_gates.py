"""Tests for gate specs, instructions and unitary matrices."""

import math

import numpy as np
import pytest

from repro.circuit.gates import (
    BASIS_GATES,
    GATE_SPECS,
    Instruction,
    gate_matrix,
    is_parameterized_gate,
    is_two_qubit,
)
from repro.circuit.parameters import Parameter


class TestGateSpecs:
    def test_basis_gates_are_marked(self):
        for name in BASIS_GATES:
            assert GATE_SPECS[name].is_basis

    def test_measure_is_directive(self):
        assert GATE_SPECS["measure"].is_directive

    def test_two_qubit_detection(self):
        assert is_two_qubit("cx")
        assert is_two_qubit("rzz")
        assert not is_two_qubit("rz")
        assert not is_two_qubit("measure")

    def test_parameterized_detection(self):
        assert is_parameterized_gate("rx")
        assert not is_parameterized_gate("h")
        assert not is_parameterized_gate("nonexistent")


class TestInstruction:
    def test_valid_instruction(self):
        inst = Instruction("cx", (0, 1))
        assert inst.qubits == (0, 1)
        assert inst.is_unitary

    def test_unknown_gate_rejected(self):
        with pytest.raises(ValueError):
            Instruction("foo", (0,))

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            Instruction("cx", (0,))

    def test_duplicate_qubits_rejected(self):
        with pytest.raises(ValueError):
            Instruction("cx", (1, 1))

    def test_wrong_param_count_rejected(self):
        with pytest.raises(ValueError):
            Instruction("rz", (0,))

    def test_measurement_flags(self):
        inst = Instruction("measure", (0,))
        assert inst.is_measurement
        assert not inst.is_unitary

    def test_free_parameters(self):
        p = Parameter("x")
        inst = Instruction("ry", (0,), (p,))
        assert inst.free_parameters == frozenset({p})

    def test_bind_replaces_parameters(self):
        p = Parameter("x")
        inst = Instruction("ry", (0,), (p,)).bind({p: 0.5})
        assert inst.params == (0.5,)
        assert not inst.free_parameters

    def test_bind_is_noop_for_bound(self):
        inst = Instruction("ry", (0,), (0.5,))
        assert inst.bind({}) is inst


class TestGateMatrices:
    @pytest.mark.parametrize("name", ["id", "x", "y", "z", "h", "s", "sdg", "t", "sx"])
    def test_one_qubit_matrices_are_unitary(self, name):
        mat = gate_matrix(name)
        assert mat.shape == (2, 2)
        assert np.allclose(mat @ mat.conj().T, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("name", ["cx", "cz", "swap"])
    def test_two_qubit_matrices_are_unitary(self, name):
        mat = gate_matrix(name)
        assert mat.shape == (4, 4)
        assert np.allclose(mat @ mat.conj().T, np.eye(4), atol=1e-12)

    @pytest.mark.parametrize("name", ["rx", "ry", "rz"])
    @pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 2, math.pi, 2 * math.pi])
    def test_rotations_are_unitary(self, name, theta):
        mat = gate_matrix(name, [theta])
        assert np.allclose(mat @ mat.conj().T, np.eye(2), atol=1e-12)

    def test_rotation_at_zero_is_identity(self):
        for name in ("rx", "ry", "rz"):
            assert np.allclose(gate_matrix(name, [0.0]), np.eye(2), atol=1e-12)

    def test_rx_pi_is_x_up_to_phase(self):
        rx = gate_matrix("rx", [math.pi])
        x = gate_matrix("x")
        phase = rx[0, 1] / x[0, 1]
        assert np.allclose(rx, phase * x, atol=1e-12)

    def test_sx_squared_is_x(self):
        sx = gate_matrix("sx")
        assert np.allclose(sx @ sx, gate_matrix("x"), atol=1e-12)

    def test_h_squared_is_identity(self):
        h = gate_matrix("h")
        assert np.allclose(h @ h, np.eye(2), atol=1e-12)

    def test_cx_maps_10_to_11(self):
        cx = gate_matrix("cx")
        state = np.zeros(4)
        state[0b10] = 1.0
        out = cx @ state
        assert out[0b11] == pytest.approx(1.0)

    def test_swap_exchanges_basis_states(self):
        swap = gate_matrix("swap")
        state = np.zeros(4)
        state[0b01] = 1.0
        out = swap @ state
        assert out[0b10] == pytest.approx(1.0)

    def test_rzz_is_diagonal(self):
        mat = gate_matrix("rzz", [0.7])
        off_diagonal = mat - np.diag(np.diag(mat))
        assert np.allclose(off_diagonal, 0.0)

    def test_measure_has_no_matrix(self):
        with pytest.raises(ValueError):
            gate_matrix("measure")

    def test_unknown_gate_rejected(self):
        with pytest.raises(ValueError):
            gate_matrix("foo")

    def test_wrong_param_count_rejected(self):
        with pytest.raises(ValueError):
            gate_matrix("rx", [])
