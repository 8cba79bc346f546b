"""Differential tests: ``simulate_statevector``'s dense plan against the
gate-by-gate loop it replaced (``tests/_reference/statevector.py``).

The plan is compiled once per circuit: the state after the leading gates with
no free parameter, then one gather/scatter step per later gate.  Amplitudes
must be byte-equal to one ``Statevector.apply_gate`` per unitary, whatever the
prefix length (0 to the whole circuit), the angle kind, the interleaved
directives, or a circuit that grew after its first run; ``exact_expectation``
must agree to the last bit; a returned state is the caller's to mutate.
"""

import math

import numpy as np
import pytest
from _reference import statevector as reference
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import Parameter, ParameterExpression, QuantumCircuit
from repro.circuit.gates import GATE_SPECS
from repro.hamiltonian.expectation import exact_expectation
from repro.hamiltonian.pauli import PauliString, PauliSum
from repro.simulator.statevector import Statevector, _dense_plan, simulate_statevector
from repro.vqa import heisenberg_vqe_problem, ring_maxcut_qaoa_problem

angles = st.floats(min_value=-2 * math.pi, max_value=2 * math.pi, allow_nan=False)
UNITARY_GATES = sorted(name for name, spec in GATE_SPECS.items() if not spec.is_directive)
ROTATIONS = [name for name in UNITARY_GATES if GATE_SPECS[name].num_params]
SYMBOLS = [Parameter(f"theta{i}") for i in range(3)]
ESTIMATORS = {
    "qaoa_ring": ring_maxcut_qaoa_problem().estimator,
    "heisenberg": heisenberg_vqe_problem().estimator,
}


@st.composite
def symbolic_angles(draw):
    symbol = draw(st.sampled_from(SYMBOLS))
    if draw(st.booleans()):
        return symbol
    coeff = draw(st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
    return ParameterExpression(symbol, coeff, draw(angles))


def add_gates(draw, circuit, count, fixed_angles):
    """Append ``count`` unitaries (every gate of the width), each possibly
    preceded by a measure or a barrier; ``fixed_angles`` keeps them free of
    parameters, otherwise an angle is a float, a Parameter or an expression."""
    n = circuit.num_qubits
    gates = [g for g in UNITARY_GATES if GATE_SPECS[g].num_qubits <= n]
    for _ in range(count):
        directive = draw(st.sampled_from([None, None, "measure", "barrier"]))
        if directive == "barrier":
            circuit.barrier()
        elif directive == "measure":
            circuit.measure(draw(st.integers(0, n - 1)))
        name = draw(st.sampled_from(gates))
        qubits = draw(st.permutations(range(n)))[: GATE_SPECS[name].num_qubits]
        params = [
            draw(angles if fixed_angles else st.one_of(angles, symbolic_angles()))
            for _ in range(GATE_SPECS[name].num_params)
        ]
        circuit.add_gate(name, qubits, params)


@st.composite
def prefixed_circuits(draw):
    """A 1-5 qubit circuit whose parameter-free prefix is exactly ``k`` of its
    unitaries, ``k`` anywhere from 0 to all of them."""
    num_qubits = draw(st.integers(1, 5))
    circuit = QuantumCircuit(num_qubits)
    prefix = draw(st.integers(0, 8))
    add_gates(draw, circuit, prefix, fixed_angles=True)
    tail = draw(st.integers(0, 8))
    if tail:
        name = draw(st.sampled_from([g for g in ROTATIONS if GATE_SPECS[g].num_qubits <= num_qubits]))
        qubits = draw(st.permutations(range(num_qubits)))[: GATE_SPECS[name].num_qubits]
        circuit.add_gate(name, qubits, [draw(symbolic_angles())])
        add_gates(draw, circuit, tail - 1, fixed_angles=False)
    if draw(st.booleans()):
        circuit.measure_all()
    return circuit, prefix


def bindings(draw):
    return {symbol: draw(angles) for symbol in SYMBOLS}


def gate_by_gate(circuit, values):
    return reference.run_gate_by_gate(Statevector(circuit.num_qubits), circuit, values).data


@st.composite
def pauli_sums(draw, num_qubits):
    labels = st.text("IXYZ", min_size=num_qubits, max_size=num_qubits)
    coefficients = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
    terms = draw(st.lists(st.tuples(labels, coefficients), min_size=1, max_size=4))
    return PauliSum(PauliString(label, coeff) for label, coeff in terms)


class TestDensePlanDifferential:
    @given(drawn=prefixed_circuits(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_amplitudes_are_byte_equal_for_every_prefix_length(self, drawn, data):
        circuit, prefix = drawn
        values = bindings(data.draw)
        _, steps = _dense_plan(circuit)
        unitaries = sum(inst.is_unitary for inst in circuit.instructions)
        assert len(steps) == unitaries - prefix
        got = simulate_statevector(circuit, values).data
        assert got.tobytes() == gate_by_gate(circuit, values).tobytes()
        assert got.tobytes() == reference.simulate(circuit, values).tobytes()

    @given(drawn=prefixed_circuits(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_exact_expectation_is_hex_equal(self, drawn, data):
        circuit, _ = drawn
        values = bindings(data.draw)
        hamiltonian = data.draw(pauli_sums(circuit.num_qubits))
        expected = hamiltonian.expectation_from_statevector(gate_by_gate(circuit, values))
        got = exact_expectation(circuit, hamiltonian, values)
        assert got.hex() == expected.hex()

    @given(drawn=prefixed_circuits(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_a_circuit_appended_to_after_its_first_run_recompiles(self, drawn, data):
        circuit, _ = drawn
        values = bindings(data.draw)
        first = simulate_statevector(circuit, values).data
        assert first.tobytes() == gate_by_gate(circuit, values).tobytes()
        add_gates(data.draw, circuit, data.draw(st.integers(1, 6)), data.draw(st.booleans()))
        got = simulate_statevector(circuit, values).data
        assert got.tobytes() == gate_by_gate(circuit, values).tobytes()

    @given(drawn=prefixed_circuits(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_mutating_a_returned_state_leaves_the_next_run_unchanged(self, drawn, data):
        circuit, _ = drawn
        values = bindings(data.draw)
        expected = gate_by_gate(circuit, values).tobytes()
        state = simulate_statevector(circuit, values)
        state._vec[:] = 0.5  # in place: a shared prefix buffer would keep it
        state.apply_gate("x", [0])
        assert simulate_statevector(circuit, values).data.tobytes() == expected

    def test_parameter_free_circuit_is_all_prefix_and_its_state_is_a_copy(self):
        circuit = QuantumCircuit(2).h(0).cx(0, 1).rz(0.3, 1).measure_all()
        prefix, steps = _dense_plan(circuit)
        assert steps == () and not prefix.flags.writeable
        state = simulate_statevector(circuit)
        assert not np.shares_memory(state._vec, prefix)
        assert state.data.tobytes() == gate_by_gate(circuit, {}).tobytes()

    def test_plan_is_compiled_once_per_circuit(self):
        theta = Parameter("theta")
        circuit = QuantumCircuit(2).h(0).h(1).rzz(theta, 0, 1).rx(theta, 0)
        plan = _dense_plan(circuit)
        simulate_statevector(circuit, {theta: 0.4})
        assert _dense_plan(circuit)[1] is plan[1]
        assert len(plan[1]) == 2

    @pytest.mark.parametrize("name", sorted(ESTIMATORS))
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_exact_energy_is_hex_equal(self, name, data):
        estimator = ESTIMATORS[name]
        theta = data.draw(
            st.lists(angles, min_size=estimator.num_parameters, max_size=estimator.num_parameters)
        )
        vec = gate_by_gate(estimator.ansatz, estimator.bindings(theta))
        expected = estimator.hamiltonian.expectation_from_statevector(vec)
        assert estimator.exact_energy(theta).hex() == expected.hex()
