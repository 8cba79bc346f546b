"""Big-``n`` execution modes: tiled batches and complex64 precision.

Tiling must be *bit-exact* against the untiled pass (every op acts on batch
rows independently), while complex64 execution trades ~1e-6 amplitude error
for half the memory.  Both are checked across the same structure space as
the compiler equivalence suite: fused, unfused, diagonal-disabled, and
parameterless programs; a 15-qubit sweep checks the tiled pass's memory
budget.
"""

import tracemalloc

import numpy as np
import pytest

from test_compiler import random_structure

from repro.circuit import ghz_state, hardware_efficient_ansatz, qaoa_maxcut_ansatz
from repro.circuit.circuit import QuantumCircuit
from repro.engine import (
    DiagonalOp,
    compile_circuit,
    execute_program,
    marginal_distribution,
    parameter_plan,
    plan_slot_values,
)

C64_TOLERANCE = 1e-5
TILE_TOLERANCE = 1e-10


def _random_sweep(seed, *, points=11):
    rng = np.random.default_rng(seed)
    num_qubits = int(rng.integers(2, 6))
    circuit = random_structure(rng, num_qubits, int(rng.integers(8, 32)))
    program = compile_circuit(circuit)
    plan = parameter_plan(circuit, program)
    theta = rng.uniform(-2 * np.pi, 2 * np.pi, (points, len(circuit.ordered_parameters())))
    return program, plan_slot_values(plan, theta)


class TestTiledExecution:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("tile", [1, 3, 4, 64])
    def test_tiled_matches_untiled(self, seed, tile):
        # Identical up to BLAS reduction order in the diagonal-op slot
        # matmul, which can differ between a 1-row and an N-row product.
        program, slots = _random_sweep(2000 + seed)
        base = execute_program(program, slots)
        tiled = execute_program(program, slots, tile=tile)
        assert tiled.dtype == base.dtype
        assert np.max(np.abs(base - tiled)) <= TILE_TOLERANCE

    def test_tile_covering_whole_batch_single_pass(self):
        program, slots = _random_sweep(77, points=5)
        # tile >= batch takes the untiled code path and is exactly equal.
        assert np.array_equal(
            execute_program(program, slots),
            execute_program(program, slots, tile=5),
        )

    def test_unfused_and_matrices_only_programs(self):
        rng = np.random.default_rng(4321)
        circuit = random_structure(rng, 4, 20)
        theta = rng.uniform(-np.pi, np.pi, (9, len(circuit.ordered_parameters())))
        for program in (
            compile_circuit(circuit, fuse=False),
            compile_circuit(circuit, fuse=False, diagonals=False),
        ):
            slots = plan_slot_values(parameter_plan(circuit, program), theta)
            base = execute_program(program, slots)
            tiled = execute_program(program, slots, tile=2)
            assert np.max(np.abs(base - tiled)) <= TILE_TOLERANCE

    def test_parameterless_program(self):
        program = compile_circuit(ghz_state(4))
        base = execute_program(program, batch=7)
        assert np.array_equal(base, execute_program(program, batch=7, tile=3))

    def test_tile_validation(self):
        program, slots = _random_sweep(5, points=3)
        with pytest.raises(ValueError):
            execute_program(program, slots, tile=0)


class TestComplex64Execution:
    @pytest.mark.parametrize("seed", range(6))
    def test_randomized_parity(self, seed):
        program, slots = _random_sweep(3000 + seed)
        base = execute_program(program, slots)
        single = execute_program(program, slots, dtype=np.complex64)
        assert single.dtype == np.complex64
        assert np.max(np.abs(base - single)) <= C64_TOLERANCE

    def test_combined_with_tiling(self):
        program, slots = _random_sweep(99, points=13)
        base = execute_program(program, slots)
        tiled = execute_program(program, slots, dtype=np.complex64, tile=4)
        untiled = execute_program(program, slots, dtype=np.complex64)
        assert tiled.dtype == np.complex64
        assert np.max(np.abs(tiled - untiled)) <= C64_TOLERANCE
        assert np.max(np.abs(base - tiled)) <= C64_TOLERANCE

    def test_diagonal_heavy_program(self):
        circuit = qaoa_maxcut_ansatz(4, [(0, 1), (1, 2), (2, 3), (0, 3)], num_layers=2)
        program = compile_circuit(circuit)
        plan = parameter_plan(circuit, program)
        theta = np.random.default_rng(8).uniform(-1, 1, (6, len(circuit.ordered_parameters())))
        slots = plan_slot_values(plan, theta)
        base = execute_program(program, slots)
        single = execute_program(program, slots, dtype=np.complex64)
        assert np.max(np.abs(base - single)) <= C64_TOLERANCE

    def test_parameterless_program(self):
        program = compile_circuit(ghz_state(5))
        single = execute_program(program, batch=3, dtype=np.complex64)
        assert single.dtype == np.complex64
        assert np.max(np.abs(execute_program(program, batch=3) - single)) <= C64_TOLERANCE

    def test_dtype_validation(self):
        program, slots = _random_sweep(7, points=2)
        with pytest.raises(ValueError):
            execute_program(program, slots, dtype=np.float64)

    def test_default_dtype_unchanged(self):
        program, slots = _random_sweep(11, points=2)
        assert execute_program(program, slots).dtype == np.complex128


class TestTiledMemoryBudget:
    """A tiled complex64 sweep holds one output stack plus two tile rows.

    The budget is three full complex64 stacks: the tiled single-precision
    pass fits it, the untiled complex128 pass (two double-precision stacks
    plus the phase stack) cannot.
    """

    QUBITS = 15
    POINTS = 6

    @staticmethod
    def _peak_bytes(fn):
        tracemalloc.start()
        try:
            result = fn()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_tiled_complex64_fits_where_untiled_complex128_does_not(self):
        template = hardware_efficient_ansatz(self.QUBITS, num_layers=1, measure=False)
        program = compile_circuit(template)
        theta = np.random.default_rng(20260807).uniform(
            -np.pi, np.pi, (self.POINTS, len(template.ordered_parameters()))
        )
        slots = plan_slot_values(parameter_plan(template, program), theta)
        budget = 3 * self.POINTS * 2**self.QUBITS * np.dtype(np.complex64).itemsize

        base, untiled_peak = self._peak_bytes(lambda: execute_program(program, slots))
        single, tiled_peak = self._peak_bytes(
            lambda: execute_program(program, slots, dtype=np.complex64, tile=1)
        )
        assert untiled_peak > budget
        assert tiled_peak <= budget
        assert np.max(np.abs(base - execute_program(program, slots, tile=1))) <= TILE_TOLERANCE
        assert np.max(np.abs(base - single)) <= C64_TOLERANCE


class TestScratchDeferral:
    def test_diagonal_only_program_never_allocates_scratch(self, monkeypatch):
        """A diagonal-only program must run in a single ping buffer."""
        circuit = QuantumCircuit(3, name="phases")
        from repro.circuit.parameters import Parameter

        a, b = Parameter("a"), Parameter("b")
        circuit.add_gate("rz", [0], [a])
        circuit.add_gate("rzz", [0, 1], [b])
        circuit.add_gate("cp", [1, 2], [0.3])
        program = compile_circuit(circuit)
        assert all(type(op) is DiagonalOp for op in program.ops)
        slots = plan_slot_values(
            parameter_plan(circuit, program),
            np.random.default_rng(0).uniform(-1, 1, (4, 2)),
        )

        calls = []
        real_empty_like = np.empty_like
        monkeypatch.setattr(
            np, "empty_like", lambda *a, **k: (calls.append(1), real_empty_like(*a, **k))[1]
        )
        execute_program(program, slots)
        assert calls == []

    def test_matrix_program_allocates_scratch_once(self, monkeypatch):
        program = compile_circuit(hardware_efficient_ansatz(3))
        circuit = hardware_efficient_ansatz(3)
        slots = plan_slot_values(
            parameter_plan(circuit, program),
            np.random.default_rng(1).uniform(-1, 1, (4, len(circuit.ordered_parameters()))),
        )
        calls = []
        real_empty_like = np.empty_like
        monkeypatch.setattr(
            np, "empty_like", lambda *a, **k: (calls.append(1), real_empty_like(*a, **k))[1]
        )
        execute_program(program, slots)
        assert len(calls) == 1


class TestMarginalDtypes:
    def test_float32_stack_stays_float32(self):
        probs = np.random.default_rng(3).random((4, 16)).astype(np.float32)
        marg = marginal_distribution(probs, [0, 2], 4)
        assert marg.dtype == np.float32
        reference = marginal_distribution(probs.astype(np.float64), [0, 2], 4)
        assert np.allclose(marg, reference, atol=1e-6)

    def test_float64_unchanged(self):
        probs = np.random.default_rng(4).random((2, 8))
        assert marginal_distribution(probs, [0, 1, 2], 3).dtype == np.float64
