"""Tests for the ideal statevector simulator."""

import math
from unittest import mock

import numpy as np
import pytest

from repro.circuit import Parameter, QuantumCircuit, ghz_state
from repro.simulator.statevector import Statevector, simulate_statevector


class TestStatevectorBasics:
    def test_initial_state_is_all_zeros(self):
        sv = Statevector(3)
        probs = sv.probabilities()
        assert probs[0] == pytest.approx(1.0)
        assert probs[1:].sum() == pytest.approx(0.0)

    def test_custom_data_is_normalized(self):
        sv = Statevector(1, np.array([3.0, 4.0]))
        assert np.linalg.norm(sv.data) == pytest.approx(1.0)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            Statevector(1, np.zeros(2))

    def test_width_validation(self):
        with pytest.raises(ValueError):
            Statevector(0)

    def test_copy_is_independent(self):
        sv = Statevector(1)
        other = sv.copy()
        other.apply_gate("x", [0])
        assert sv.probabilities()[0] == pytest.approx(1.0)
        assert other.probabilities()[1] == pytest.approx(1.0)


class TestGateApplication:
    def test_x_flips_qubit(self):
        sv = Statevector(2)
        sv.apply_gate("x", [1])
        # qubit 0 is the most significant bit: |01>
        assert sv.probabilities()[0b01] == pytest.approx(1.0)

    def test_h_creates_superposition(self):
        sv = Statevector(1)
        sv.apply_gate("h", [0])
        assert np.allclose(sv.probabilities(), [0.5, 0.5])

    def test_cx_entangles(self):
        sv = Statevector(2)
        sv.apply_gate("h", [0])
        sv.apply_gate("cx", [0, 1])
        probs = sv.probabilities()
        assert probs[0b00] == pytest.approx(0.5)
        assert probs[0b11] == pytest.approx(0.5)

    def test_cx_control_and_target_order_matters(self):
        sv = Statevector(2)
        sv.apply_gate("x", [1])       # |01>
        sv.apply_gate("cx", [1, 0])   # control = qubit 1 (set) -> flips qubit 0
        assert sv.probabilities()[0b11] == pytest.approx(1.0)

    def test_normalization_preserved(self):
        rng = np.random.default_rng(0)
        sv = Statevector(3)
        for _ in range(20):
            gate = rng.choice(["h", "x", "rz", "ry"])
            qubit = int(rng.integers(0, 3))
            params = [float(rng.uniform(0, 2 * math.pi))] if gate in ("rz", "ry") else []
            sv.apply_gate(gate, [qubit], params)
        assert np.sum(sv.probabilities()) == pytest.approx(1.0)

    def test_invalid_matrix_shape_rejected(self):
        sv = Statevector(2)
        with pytest.raises(ValueError, match=r"matrix of shape \(2, 2\) does not act on 2 qubits"):
            sv.apply_matrix(np.eye(2), [0, 1])

    # The range and duplicate checks live in the memoized index builder: a
    # rejected key is never cached, so asking again raises again.
    def test_duplicate_qubits_rejected(self):
        sv = Statevector(2)
        for _ in range(2):
            with pytest.raises(ValueError, match="duplicate qubits in gate application"):
                sv.apply_matrix(np.eye(4), [0, 0])

    def test_out_of_range_qubit_rejected(self):
        sv = Statevector(2)
        for qubit in (5, 2, -1, 5):
            with pytest.raises(ValueError, match=f"qubit {qubit} out of range"):
                sv.apply_gate("x", [qubit])
        assert sv.data.tobytes() == Statevector(2).data.tobytes()


class TestProbabilities:
    def test_marginal_over_subset(self):
        sv = Statevector(2)
        sv.apply_gate("x", [0])
        # Marginal over qubit 1 only: qubit 1 is still |0>
        assert np.allclose(sv.probabilities([1]), [1.0, 0.0])

    def test_marginal_ordering(self):
        sv = Statevector(2)
        sv.apply_gate("x", [0])  # state |10>
        # asking for qubits in order (1, 0) should report bitstring "01"
        probs = sv.probabilities([1, 0])
        assert probs[0b01] == pytest.approx(1.0)

    def test_full_equals_default(self):
        sv = Statevector(2)
        sv.apply_gate("h", [0])
        assert np.allclose(sv.probabilities(), sv.probabilities([0, 1]))


class TestExpectationAndFidelity:
    def test_z_expectation_of_zero_state(self):
        sv = Statevector(2)
        assert sv.expectation_pauli("ZI") == pytest.approx(1.0)
        assert sv.expectation_pauli("IZ") == pytest.approx(1.0)

    def test_z_expectation_of_one_state(self):
        sv = Statevector(1)
        sv.apply_gate("x", [0])
        assert sv.expectation_pauli("Z") == pytest.approx(-1.0)

    def test_x_expectation_of_plus_state(self):
        sv = Statevector(1)
        sv.apply_gate("h", [0])
        assert sv.expectation_pauli("X") == pytest.approx(1.0)

    def test_ghz_parity(self):
        sv = Statevector(3)
        sv.apply_gate("h", [0])
        sv.apply_gate("cx", [0, 1])
        sv.apply_gate("cx", [1, 2])
        assert sv.expectation_pauli("ZZI") == pytest.approx(1.0)
        assert sv.expectation_pauli("XXX") == pytest.approx(1.0)
        assert sv.expectation_pauli("ZII") == pytest.approx(0.0)

    def test_invalid_label_length(self):
        with pytest.raises(ValueError):
            Statevector(2).expectation_pauli("Z")

    def test_invalid_label_character(self):
        with pytest.raises(ValueError):
            Statevector(1).expectation_pauli("Q")

    def test_fidelity_identical_states(self):
        a, b = Statevector(2), Statevector(2)
        assert a.fidelity(b) == pytest.approx(1.0)

    def test_fidelity_orthogonal_states(self):
        a = Statevector(1)
        b = Statevector(1)
        b.apply_gate("x", [0])
        assert a.fidelity(b) == pytest.approx(0.0)

    def test_fidelity_width_mismatch(self):
        with pytest.raises(ValueError):
            Statevector(1).fidelity(Statevector(2))


class TestSimulateCircuit:
    def test_ghz_distribution(self):
        state = simulate_statevector(ghz_state(4, measure=False))
        probs = state.probabilities()
        assert probs[0] == pytest.approx(0.5)
        assert probs[-1] == pytest.approx(0.5)

    def test_measurements_are_ignored(self):
        state = simulate_statevector(ghz_state(3, measure=True))
        assert state.probabilities()[0] == pytest.approx(0.5)

    def test_parameter_binding(self):
        p = Parameter("a")
        qc = QuantumCircuit(1).ry(p, 0)
        state = simulate_statevector(qc, {p: math.pi})
        assert state.probabilities()[1] == pytest.approx(1.0)

    def test_unbound_parameters_rejected(self):
        qc = QuantumCircuit(1).ry(Parameter("a"), 0)
        with pytest.raises(ValueError, match="unbound parameters remain: a"):
            simulate_statevector(qc)

    def test_partially_bound_parameters_name_the_missing_one(self):
        a, b = Parameter("a"), Parameter("b")
        qc = QuantumCircuit(2).ry(a, 0).rz(0.5 * b + 0.1, 1)
        with pytest.raises(ValueError, match=r"unbound parameters remain: b$"):
            simulate_statevector(qc, {a: 0.3})

    def test_a_run_wraps_the_dense_plan_output_without_building_a_state(self):
        """The one-binding run hands its vector to a trusted constructor:
        no ``Statevector.__init__`` (a zeroed vector thrown away), and the
        bytes are the stacked dense-plan run's row."""
        a, b = Parameter("a"), Parameter("b")
        qc = QuantumCircuit(3).h(0).ry(a, 1).cx(0, 2).rz(0.5 * b + 0.1, 2).cx(1, 0)
        binding = {a: 0.7, b: -1.3}
        (row,) = simulate_statevector(qc, [binding])  # compiles the plan
        with mock.patch.object(Statevector, "__init__", side_effect=AssertionError) as init:
            state = simulate_statevector(qc, binding)
        assert init.call_count == 0
        assert isinstance(state, Statevector) and state.num_qubits == 3
        assert state.data.tobytes() == row.tobytes()
