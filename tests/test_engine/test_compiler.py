"""Compiled gate-program equivalence suite.

The compiler may reorder commuting gates, fold constants, fuse runs, and
specialize diagonals — but the executed program must agree with the looped
reference simulator to ≤1e-10 on every structure it can be handed.  The
randomized section draws structures from the full gate alphabet and checks
each compiled program against ``simulate_statevector`` on random bindings.
"""

import numpy as np
import pytest

from _reference import engine as engine_reference
from repro.circuit import ghz_state, hardware_efficient_ansatz, qaoa_maxcut_ansatz
from repro.circuit.circuit import QuantumCircuit
from repro.circuit.gates import GATE_SPECS
from repro.circuit.parameters import Parameter
from repro.engine import (
    DiagonalOp,
    MatrixOp,
    ProgramCache,
    compile_circuit,
    execute_program,
    marginal_distribution,
    marginal_probabilities,
    parameter_plan,
    slot_values_from_circuits,
)
from repro.simulator.statevector import simulate_statevector

TOLERANCE = 1e-10

#: Every unitary gate the IR knows, grouped by arity.
ONE_QUBIT = [n for n, s in GATE_SPECS.items() if s.num_qubits == 1 and not s.is_directive]
TWO_QUBIT = [n for n, s in GATE_SPECS.items() if s.num_qubits == 2 and not s.is_directive]


def random_structure(rng: np.random.Generator, num_qubits: int, num_gates: int):
    """A random circuit over the full alphabet with symbolic rotation slots."""
    circuit = QuantumCircuit(num_qubits, name="random")
    params = []
    for g in range(num_gates):
        if rng.random() < 0.55:
            name = ONE_QUBIT[rng.integers(len(ONE_QUBIT))]
            qubits = [int(rng.integers(num_qubits))]
        else:
            name = TWO_QUBIT[rng.integers(len(TWO_QUBIT))]
            a, b = rng.choice(num_qubits, size=2, replace=False)
            qubits = [int(a), int(b)]
        if GATE_SPECS[name].num_params:
            # Mix bound floats, bare parameters, and affine expressions.
            roll = rng.random()
            if roll < 0.3:
                angle = float(rng.uniform(-np.pi, np.pi))
            else:
                p = Parameter(f"p{g}")
                params.append(p)
                angle = p if roll < 0.7 else float(rng.uniform(0.2, 2.0)) * p + float(
                    rng.uniform(-0.5, 0.5)
                )
            circuit.add_gate(name, qubits, [angle])
        else:
            circuit.add_gate(name, qubits)
    return circuit


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_compiled_program_and_reference_agree(self, seed):
        rng = np.random.default_rng(1000 + seed)
        num_qubits = int(rng.integers(2, 6))
        circuit = random_structure(rng, num_qubits, int(rng.integers(8, 40)))
        num_params = len(circuit.ordered_parameters())
        theta = rng.uniform(-2 * np.pi, 2 * np.pi, (4, num_params))

        program = compile_circuit(circuit)
        plan = parameter_plan(circuit, program)
        states = execute_program(program, engine_reference.plan_slot_values(plan, theta))
        for row, values in zip(states, theta):
            reference = simulate_statevector(circuit.assign_by_order(values)).data
            delta = float(np.max(np.abs(row - reference)))
            assert delta < TOLERANCE, f"diverged by {delta:.2e}"

    @pytest.mark.parametrize("seed", range(6))
    def test_bound_circuit_extraction_matches_plan(self, seed):
        rng = np.random.default_rng(2000 + seed)
        circuit = random_structure(rng, 4, 20)
        num_params = len(circuit.ordered_parameters())
        theta = rng.uniform(-np.pi, np.pi, (3, num_params))
        program = compile_circuit(circuit)
        plan = parameter_plan(circuit, program)
        via_plan = execute_program(program, engine_reference.plan_slot_values(plan, theta))
        bound = [circuit.assign_by_order(row) for row in theta]
        via_extraction = execute_program(program, slot_values_from_circuits(program, bound))
        assert np.max(np.abs(via_plan - via_extraction)) == 0.0


class TestFusionStructure:
    def test_single_wire_run_folds_to_one_constant_op(self):
        qc = QuantumCircuit(2)
        qc.h(0)
        qc.s(0)
        qc.h(0)
        qc.t(1)
        program = compile_circuit(qc)
        matrix_ops = [op for op in program.ops if isinstance(op, MatrixOp)]
        # h·s·h on wire 0 folds to one 2x2; t(1) becomes a diagonal phase.
        assert len(matrix_ops) == 1
        assert matrix_ops[0].qubits == (0,)
        assert matrix_ops[0].matrix is not None

    def test_qaoa_cost_layer_becomes_one_diagonal_op(self):
        template = qaoa_maxcut_ansatz(4, [(0, 1), (1, 2), (2, 3), (0, 3)], num_layers=1)
        program = compile_circuit(template)
        diag_ops = [op for op in program.ops if isinstance(op, DiagonalOp)]
        assert len(diag_ops) == 1  # all four rzz gates merged
        assert len(diag_ops[0].slots) == 4

    def test_same_pair_two_qubit_gates_fuse(self):
        qc = QuantumCircuit(3)
        qc.cx(0, 1)
        qc.cx(0, 1)
        qc.swap(0, 1)
        program = compile_circuit(qc)
        assert program.num_ops == 1
        op = program.ops[0]
        assert isinstance(op, MatrixOp) and set(op.qubits) == {0, 1}

    def test_reversed_pair_fusion_permutes_correctly(self):
        qc = QuantumCircuit(2)
        qc.cx(0, 1)
        qc.cx(1, 0)
        qc.cx(0, 1)
        program = compile_circuit(qc)
        assert program.num_ops == 1
        state = execute_program(compile_circuit(qc), batch=1)[0]
        assert np.max(np.abs(state - simulate_statevector(qc).data)) < TOLERANCE

    def test_identity_gates_are_eliminated(self):
        qc = QuantumCircuit(2)
        qc.id(0)
        qc.id(1)
        program = compile_circuit(qc)
        assert program.num_ops == 0
        state = execute_program(program, batch=2)
        assert np.allclose(state[:, 0], 1.0)

    def test_ghz_compiles_below_gate_count(self):
        program = compile_circuit(ghz_state(4))
        assert program.num_ops < program.source_gates


class TestProgramCache:
    def test_structure_sharing_across_bindings(self):
        cache = ProgramCache()
        template = hardware_efficient_ansatz(4)
        values = np.linspace(0.0, 1.5, len(template.ordered_parameters()))
        first = cache.get_or_compile(template)
        second = cache.get_or_compile(template.assign_by_order(values))
        assert first is second
        assert cache.hits == 1 and cache.misses == 1
        assert len(cache) == 1

    def test_distinct_structures_get_distinct_programs(self):
        cache = ProgramCache()
        a = cache.get_or_compile(ghz_state(3))
        b = cache.get_or_compile(ghz_state(4))
        assert a is not b
        assert len(cache) == 2


class TestExecutorContracts:
    def test_slot_count_mismatch_raises(self):
        program = compile_circuit(hardware_efficient_ansatz(3))
        with pytest.raises(ValueError):
            execute_program(program, np.zeros((2, program.num_slots + 1)))

    def test_marginal_probabilities_match_statevector(self):
        rng = np.random.default_rng(7)
        circuit = random_structure(rng, 4, 18)
        theta = rng.uniform(-np.pi, np.pi, (2, len(circuit.ordered_parameters())))
        program = compile_circuit(circuit)
        plan = parameter_plan(circuit, program)
        states = execute_program(program, engine_reference.plan_slot_values(plan, theta))
        for qubits in ([0, 2], [3, 1, 0], [2]):
            probs = marginal_probabilities(states, qubits, 4)
            for row, values in zip(probs, theta):
                reference = simulate_statevector(
                    circuit.assign_by_order(values)
                ).probabilities(qubits)
                assert np.max(np.abs(row - reference)) < TOLERANCE

    def test_bit_ordering_contract(self):
        # qubit 0 is the most significant bit: x(0) on |00> lands on index 2.
        qc = QuantumCircuit(2)
        qc.x(0)
        state = execute_program(compile_circuit(qc), batch=1)[0]
        assert np.argmax(np.abs(state)) == 0b10

    def test_states_are_complex128_and_marginals_float64(self):
        program = compile_circuit(hardware_efficient_ansatz(3))
        states = execute_program(program, np.zeros((2, program.num_slots)))
        assert states.dtype == np.complex128
        probs = np.random.default_rng(4).random((2, 8))
        assert marginal_distribution(probs, [0, 1, 2], 3).dtype == np.float64


class TestScratchDeferral:
    @staticmethod
    def _count_scratch(monkeypatch) -> list:
        calls = []
        real_empty_like = np.empty_like
        monkeypatch.setattr(
            np, "empty_like", lambda *a, **k: (calls.append(1), real_empty_like(*a, **k))[1]
        )
        return calls

    def test_diagonal_only_program_never_allocates_scratch(self, monkeypatch):
        """A diagonal-only program must run in a single ping buffer."""
        a, b = Parameter("a"), Parameter("b")
        circuit = QuantumCircuit(3, name="phases").rz(a, 0).rzz(b, 0, 1).cp(0.3, 1, 2)
        program = compile_circuit(circuit)
        assert all(type(op) is DiagonalOp for op in program.ops)
        slots = engine_reference.plan_slot_values(
            parameter_plan(circuit, program),
            np.random.default_rng(0).uniform(-1, 1, (4, 2)),
        )
        calls = self._count_scratch(monkeypatch)
        execute_program(program, slots)
        assert calls == []

    def test_matrix_program_allocates_scratch_once(self, monkeypatch):
        circuit = hardware_efficient_ansatz(3)
        program = compile_circuit(circuit)
        slots = engine_reference.plan_slot_values(
            parameter_plan(circuit, program),
            np.random.default_rng(1).uniform(-1, 1, (4, len(circuit.ordered_parameters()))),
        )
        calls = self._count_scratch(monkeypatch)
        execute_program(program, slots)
        assert len(calls) == 1
