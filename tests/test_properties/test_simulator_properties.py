"""Property-based tests (hypothesis) for simulator invariants."""

import math

import numpy as np
import pytest
from _reference import statevector as reference
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import Parameter, ParameterExpression, QuantumCircuit
from repro.circuit.gates import GATE_SPECS, gate_matrix
from repro.simulator import readout_confusion_matrix
from repro.simulator.mixing import MixingNoiseSpec, noisy_probabilities
from repro.simulator.sampler import apply_readout_error, sample_distribution
from repro.simulator.statevector import Statevector, simulate_statevector
from repro.vqa import heisenberg_vqe_problem, ring_maxcut_qaoa_problem
from repro.vqa.qnn import QNNProblem, make_synthetic_dataset

angles = st.floats(min_value=-2 * math.pi, max_value=2 * math.pi, allow_nan=False)
probabilities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)

UNITARY_GATES = sorted(name for name, spec in GATE_SPECS.items() if not spec.is_directive)
SYMBOLS = [Parameter(f"p{i}") for i in range(3)]
ESTIMATORS = {
    "qaoa_ring": ring_maxcut_qaoa_problem().estimator,
    "heisenberg": heisenberg_vqe_problem().estimator,
    "qnn": QNNProblem("qnn", make_synthetic_dataset(4)).estimator_for(1),
}


def random_circuit(num_qubits: int, moves: list[tuple[int, int, float]]) -> QuantumCircuit:
    """Build a circuit from a list of (gate selector, qubit, angle) moves."""
    qc = QuantumCircuit(num_qubits)
    gates_1q = ["h", "x", "sx"]
    for selector, qubit, angle in moves:
        qubit_a = qubit % num_qubits
        kind = selector % 5
        if kind == 0:
            qc.add_gate(gates_1q[selector % 3], [qubit_a])
        elif kind == 1:
            qc.ry(angle, qubit_a)
        elif kind == 2:
            qc.rz(angle, qubit_a)
        elif kind == 3:
            qc.rx(angle, qubit_a)
        else:
            qubit_b = (qubit_a + 1) % num_qubits
            qc.cx(qubit_a, qubit_b)
    return qc


moves_strategy = st.lists(
    st.tuples(st.integers(0, 14), st.integers(0, 3), angles), min_size=1, max_size=25
)


@st.composite
def gate_angles(draw):
    """A float, a free Parameter, or ``coeff * parameter + offset``."""
    kind = draw(st.sampled_from(["float", "parameter", "expression"]))
    if kind == "float":
        return draw(angles)
    symbol = draw(st.sampled_from(SYMBOLS))
    if kind == "parameter":
        return symbol
    coeff = draw(st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
    return ParameterExpression(symbol, coeff, draw(angles))


@st.composite
def drawn_circuits(draw):
    """1-5 qubit circuits over every unitary gate, qubits in any order, plus
    measurement and barrier directives the simulator must skip."""
    num_qubits = draw(st.integers(1, 5))
    gates = [g for g in UNITARY_GATES if GATE_SPECS[g].num_qubits <= num_qubits]
    circuit = QuantumCircuit(num_qubits)
    for _ in range(draw(st.integers(1, 24))):
        name = draw(st.sampled_from(gates + ["measure", "barrier"]))
        if name == "barrier":
            circuit.barrier()
            continue
        spec = GATE_SPECS[name]
        qubits = draw(st.permutations(range(num_qubits)))[: spec.num_qubits]
        params = [draw(gate_angles()) for _ in range(spec.num_params)]
        circuit.add_gate(name, qubits, params)
    values = {symbol: draw(angles) for symbol in SYMBOLS}
    return circuit, values


class TestStatevectorInvariants:
    @given(moves=moves_strategy)
    @settings(max_examples=40, deadline=None)
    def test_norm_preserved_by_any_circuit(self, moves):
        circuit = random_circuit(3, moves)
        state = simulate_statevector(circuit)
        assert np.isclose(np.sum(state.probabilities()), 1.0, atol=1e-9)

    @given(moves=moves_strategy)
    @settings(max_examples=30, deadline=None)
    def test_pauli_expectations_bounded(self, moves):
        circuit = random_circuit(3, moves)
        state = simulate_statevector(circuit)
        for label in ("ZII", "XXI", "ZZZ", "YIY"):
            value = state.expectation_pauli(label)
            assert -1.0 - 1e-9 <= value <= 1.0 + 1e-9

    @given(theta=angles)
    @settings(max_examples=40, deadline=None)
    def test_ry_probability_matches_analytic_form(self, theta):
        state = Statevector(1)
        state.apply_gate("ry", [0], [theta])
        probs = state.probabilities()
        assert np.isclose(probs[1], math.sin(theta / 2.0) ** 2, atol=1e-9)


class TestLoopedReferenceDifferential:
    """The gather/scatter simulator is byte-equal to binding the circuit and
    moving axes gate by gate (``tests/_reference/statevector.py``)."""

    @given(drawn=drawn_circuits())
    @settings(max_examples=150, deadline=None)
    def test_amplitudes_are_byte_equal(self, drawn):
        circuit, values = drawn
        got = simulate_statevector(circuit, values).data
        assert got.tobytes() == reference.simulate(circuit, values).tobytes()

    @given(drawn=drawn_circuits(), labels=st.data())
    @settings(max_examples=60, deadline=None)
    def test_pauli_expectation_is_byte_equal(self, drawn, labels):
        circuit, values = drawn
        n = circuit.num_qubits
        label = labels.draw(st.text("IXYZ", min_size=n, max_size=n))
        vec = transformed = reference.simulate(circuit, values)
        for qubit, char in enumerate(label):
            if char != "I":
                transformed = reference.apply_matrix(transformed, gate_matrix(char.lower()), (qubit,), n)
        expected = float(np.real(np.vdot(vec, transformed)))
        state = simulate_statevector(circuit, values)
        assert state.expectation_pauli(label).hex() == expected.hex()

    @pytest.mark.parametrize("name", sorted(ESTIMATORS))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_exact_energy_is_byte_equal(self, name, data):
        estimator = ESTIMATORS[name]
        theta = data.draw(
            st.lists(angles, min_size=estimator.num_parameters, max_size=estimator.num_parameters)
        )
        assert estimator.exact_energy(theta).hex() == reference.exact_energy(estimator, theta).hex()


class TestSamplingInvariants:
    @given(
        weights=st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=2, max_size=8),
        shots=st.integers(min_value=1, max_value=2000),
    )
    @settings(max_examples=40, deadline=None)
    def test_sample_counts_sum_to_shots(self, weights, shots):
        size = 1 << max(1, (len(weights) - 1).bit_length())
        probs = np.zeros(size)
        probs[: len(weights)] = weights
        counts = sample_distribution(probs, shots, np.random.default_rng(0))
        assert sum(counts.values()) == shots

    @given(p01=probabilities, p10=probabilities)
    @settings(max_examples=40, deadline=None)
    def test_readout_error_preserves_total_probability(self, p01, p10):
        probs = np.array([0.4, 0.1, 0.2, 0.3])
        matrices = [readout_confusion_matrix(p01, p10)] * 2
        out = apply_readout_error(probs, matrices)
        assert np.isclose(out.sum(), 1.0, atol=1e-9)
        assert np.all(out >= -1e-12)


class TestMixingInvariants:
    @given(success=probabilities, p01=st.floats(0, 0.3), p10=st.floats(0, 0.3))
    @settings(max_examples=40, deadline=None)
    def test_noisy_distribution_is_a_distribution(self, success, p01, p10):
        circuit = QuantumCircuit(3)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.cx(1, 2)
        circuit.measure_all()
        spec = MixingNoiseSpec(
            success_probability=success, readout_p01=p01, readout_p10=p10
        )
        probs = noisy_probabilities(circuit, spec)
        assert np.isclose(probs.sum(), 1.0, atol=1e-9)
        assert np.all(probs >= -1e-12)

    @given(success=st.floats(0.0, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_ghz_error_mass_scales_with_success(self, success):
        circuit = QuantumCircuit(3)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.cx(1, 2)
        circuit.measure_all()
        probs = noisy_probabilities(circuit, MixingNoiseSpec(success_probability=success))
        error_mass = 1.0 - probs[0] - probs[-1]
        expected = (1.0 - success) * (6.0 / 8.0)
        assert np.isclose(error_mass, expected, atol=1e-9)
