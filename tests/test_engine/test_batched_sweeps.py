"""Batched sweeps: every row of an engine pass is its own point.

A sweep's rows share one pass, so a row must not depend on its neighbours:
stacking rows as ``blocks`` keeps every block bit-equal to that block run
alone, the plain stacked pass agrees to 1e-10 (the diagonal slot matmul may
reduce in another order at another shape), and reordering the rows reorders
the states.  The sweeps draw the same structure space as the compiler
equivalence suite.
"""

import numpy as np
import pytest

from _reference import engine as engine_reference
from test_compiler import random_structure

from repro.circuit import ghz_state, qaoa_maxcut_ansatz
from repro.engine import (
    compile_circuit,
    execute_program,
    marginal_distribution,
    parameter_plan,
)
from repro.simulator.statevector import simulate_statevector

TOLERANCE = 1e-10


def _random_sweep(seed, *, points=11):
    rng = np.random.default_rng(seed)
    num_qubits = int(rng.integers(2, 6))
    circuit = random_structure(rng, num_qubits, int(rng.integers(8, 32)))
    program = compile_circuit(circuit)
    plan = parameter_plan(circuit, program)
    theta = rng.uniform(-2 * np.pi, 2 * np.pi, (points, len(circuit.ordered_parameters())))
    return program, engine_reference.plan_slot_values(plan, theta)


def _chunks(size, rows):
    return [min(rows, size - start) for start in range(0, size, rows)]


class TestRowIndependence:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("rows", [1, 3, 4, 64])
    def test_stacked_blocks_match_each_block_alone(self, seed, rows):
        program, slots = _random_sweep(2000 + seed)
        blocks = _chunks(len(slots), rows)
        stacked = execute_program(program, slots, blocks=blocks)
        plain = execute_program(program, slots)
        start = 0
        for count in blocks:
            alone = execute_program(program, slots[start : start + count])
            assert stacked[start : start + count].tobytes() == alone.tobytes()
            start += count
        assert stacked.dtype == plain.dtype == np.complex128
        assert np.max(np.abs(stacked - plain)) <= TOLERANCE

    @pytest.mark.parametrize("seed", range(6))
    def test_reordered_rows_give_reordered_states(self, seed):
        program, slots = _random_sweep(3000 + seed)
        order = np.random.default_rng(seed).permutation(len(slots))
        base = execute_program(program, slots)
        assert np.max(np.abs(execute_program(program, slots[order]) - base[order])) <= TOLERANCE

    def test_single_point_vector_is_one_row(self):
        program, slots = _random_sweep(41, points=1)
        assert np.array_equal(execute_program(program, slots[0]), execute_program(program, slots))

    def test_parameterless_program_repeats_one_state(self):
        circuit = ghz_state(4)
        states = execute_program(compile_circuit(circuit), batch=7)
        assert states.shape == (7, 16)
        assert all(np.array_equal(row, states[0]) for row in states)
        assert np.max(np.abs(states[0] - simulate_statevector(circuit).data)) <= TOLERANCE

    def test_diagonal_heavy_sweep_matches_reference(self):
        circuit = qaoa_maxcut_ansatz(4, [(0, 1), (1, 2), (2, 3), (0, 3)], num_layers=2)
        program = compile_circuit(circuit)
        theta = np.random.default_rng(8).uniform(-1, 1, (6, len(circuit.ordered_parameters())))
        slots = engine_reference.plan_slot_values(parameter_plan(circuit, program), theta)
        states = execute_program(program, slots)
        for row, values in zip(states, theta):
            reference = simulate_statevector(circuit.assign_by_order(values)).data
            assert np.max(np.abs(row - reference)) <= TOLERANCE


class TestMarginalDistribution:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_bitwise_sum_over_outcomes(self, seed):
        # Qubit 0 is the outcome index's most significant bit; the marginal's
        # index puts the first listed qubit in its most significant bit.
        rng = np.random.default_rng(seed)
        num_qubits = int(rng.integers(2, 6))
        qubits = [int(q) for q in rng.permutation(num_qubits)[: rng.integers(1, num_qubits + 1)]]
        probs = rng.random((3, 2**num_qubits))
        expected = np.zeros((3, 2 ** len(qubits)))
        for outcome in range(2**num_qubits):
            bits = [(outcome >> (num_qubits - 1 - q)) & 1 for q in qubits]
            index = sum(bit << (len(qubits) - 1 - k) for k, bit in enumerate(bits))
            expected[:, index] += probs[:, outcome]
        marg = marginal_distribution(probs, qubits, num_qubits)
        assert marg.dtype == np.float64
        assert np.allclose(marg, expected, rtol=0, atol=1e-12)
