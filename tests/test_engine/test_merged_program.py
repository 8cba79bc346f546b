"""Merged gate programs: structure, memoization, validation and telemetry."""

import numpy as np
import pytest

from repro.circuit import Parameter, QuantumCircuit
from repro.engine import (
    DiagonalOp,
    MatrixOp,
    ProgramCache,
    execute_program,
    merge_programs,
)
from repro.telemetry import TELEMETRY, telemetry_session

ENGINE_COUNTERS = (
    "engine.points_executed",
    "engine.matrix_ops_applied",
    "engine.diagonal_ops_applied",
)


@pytest.fixture
def vqe_programs(vqe_problem):
    """The Fig. 6 gradient job's three measurement-group programs."""
    cache = ProgramCache()
    templates = vqe_problem.estimator.template_circuits()
    return cache, [cache.get_or_compile(template) for template in templates]


def _basis_family(num_edges: int = 8) -> list[QuantumCircuit]:
    """One wide diagonal cost layer, then a different basis change each."""
    parameters = [Parameter(f"g{i}") for i in range(num_edges)]
    templates = []
    for basis in ("z", "x", "y"):
        circuit = QuantumCircuit(4)
        for qubit in range(4):
            circuit.h(qubit)
        for index, parameter in enumerate(parameters):
            circuit.rzz(parameter, index % 4, (index + 1 + index // 4) % 4)
        for qubit in range(4):
            circuit.rx(parameters[qubit], qubit)
            if basis == "y":
                circuit.sdg(qubit)
            if basis != "z":
                circuit.h(qubit)
        templates.append(circuit.measure_all())
    return templates


class TestMergeStructure:
    def test_heisenberg_groups_share_the_ansatz_ops(self, vqe_programs):
        _, programs = vqe_programs
        merged = merge_programs(programs)
        assert merged.stride == 3
        # The three parameterized entangling blocks are shared; the basis
        # changes (and the rz layer a Y basis folds its sdg into) are not.
        assert len(merged.ops) == 3
        assert all(type(op) is MatrixOp and op.elements for op in merged.ops)
        assert sorted(len(tail) for tail in merged.tails) == [1, 5, 5]
        assert merged.slot_gates == programs[0].slot_gates
        assert merged.source_gates == sum(p.source_gates for p in programs)

    def test_single_program_is_returned_as_is(self, vqe_programs):
        cache, programs = vqe_programs
        assert merge_programs(programs[:1]) is programs[0]
        assert cache.merged(programs[:1]) is programs[0]
        assert programs[0].stride == 1 and programs[0].tails == ()

    def test_programs_sharing_nothing_keep_whole_tails(self):
        cache = ProgramCache()
        a = QuantumCircuit(2).h(0).ry(Parameter("t"), 1)
        b = QuantumCircuit(2).x(1).ry(Parameter("t"), 0)
        programs = [cache.get_or_compile(a), cache.get_or_compile(b)]
        merged = merge_programs(programs)
        assert merged.ops == ()
        assert merged.tails == tuple(program.ops for program in programs)

    def test_rejects_different_widths_and_slot_tables(self):
        cache = ProgramCache()
        theta = Parameter("t")
        base = cache.get_or_compile(QuantumCircuit(2).ry(theta, 0))
        with pytest.raises(ValueError, match="share a width"):
            merge_programs([base, cache.get_or_compile(QuantumCircuit(3).ry(theta, 0))])
        with pytest.raises(ValueError, match="slot-gate table"):
            merge_programs([base, cache.get_or_compile(QuantumCircuit(2).rx(theta, 0))])

    def test_cache_memoizes_and_drops_the_memo_on_clear(self, vqe_programs):
        cache, programs = vqe_programs
        merged = cache.merged(programs)
        assert cache.merged(list(programs)) is merged
        cache.clear()
        assert cache._merged == {}


class TestMergedExecution:
    def test_whole_points_only(self, vqe_programs):
        _, programs = vqe_programs
        merged = merge_programs(programs)
        with pytest.raises(ValueError, match="not a multiple of 3"):
            execute_program(merged, np.zeros((4, merged.num_slots)))

    def test_wide_shared_diagonal_layer_is_bitwise_per_template(self):
        """A slot-angle GEMM's rounding can depend on its row count (BLAS
        picks the reduction order by shape, visibly from ~6 slots up), so the
        shared diagonal layer must run it at each template's own shape."""
        cache = ProgramCache()
        programs = [cache.get_or_compile(t) for t in _basis_family()]
        merged = merge_programs(programs)
        assert any(type(op) is DiagonalOp and len(op.slots) >= 8 for op in merged.ops)
        rng = np.random.default_rng(11)
        for points in (1, 2, 3, 5, 8) * 20:
            thetas = rng.uniform(-np.pi, np.pi, (points * 3, merged.num_slots))
            states = execute_program(merged, thetas)
            for offset, program in enumerate(programs):
                alone = execute_program(program, thetas[offset::3])
                assert states[offset::3].tobytes() == alone.tobytes()

    def test_blocks_keep_stacked_jobs_bitwise(self):
        """Several jobs stacked into one pass: with their row counts given as
        ``blocks`` the wide GEMM runs at each job's own shape, whatever the
        width of the stack."""
        cache = ProgramCache()
        programs = [cache.get_or_compile(t) for t in _basis_family()]
        merged = merge_programs(programs)
        rng = np.random.default_rng(13)
        for _ in range(60):
            blocks = [3 * int(points) for points in rng.integers(1, 4, rng.integers(2, 11))]
            thetas = rng.uniform(-np.pi, np.pi, (sum(blocks), merged.num_slots))
            stacked = execute_program(merged, thetas, blocks=blocks)
            stop = 0
            for rows in blocks:
                start, stop = stop, stop + rows
                alone = execute_program(merged, thetas[start:stop])
                assert stacked[start:stop].tobytes() == alone.tobytes()
            # A single (untemplated) program stacks the same way.
            single = execute_program(programs[0], thetas, blocks=blocks)
            assert single[:blocks[0]].tobytes() == execute_program(
                programs[0], thetas[: blocks[0]]
            ).tobytes()

    @pytest.mark.parametrize("blocks", [[3, 4], [3, 3], [6, 6]])
    def test_blocks_must_split_rows_into_whole_points(self, vqe_programs, blocks):
        _, programs = vqe_programs
        merged = merge_programs(programs)
        with pytest.raises(ValueError, match="whole points"):
            execute_program(merged, np.zeros((9, merged.num_slots)), blocks=blocks)


class TestMergedTelemetry:
    def test_counters_equal_the_separate_executions_sums(self, vqe_programs):
        _, programs = vqe_programs
        merged = merge_programs(programs)
        thetas = np.random.default_rng(2).uniform(-3, 3, (6, merged.num_slots))
        try:
            with telemetry_session():
                for offset, program in enumerate(programs):
                    execute_program(program, thetas[offset::3])
                separate = dict(TELEMETRY.registry.counters())
            with telemetry_session():
                execute_program(merged, thetas)
                together = dict(TELEMETRY.registry.counters())
                (span,) = [
                    event
                    for event in TELEMETRY.tracer.export_payload()["events"]
                    if event["name"] == "engine.execute"
                ]
        finally:
            TELEMETRY.reset()
        assert separate["engine.executions"] == 3
        assert together["engine.executions"] == 1
        for name in ENGINE_COUNTERS:
            assert together[name] == separate[name], name
        assert together["engine.points_executed"] == 6
        assert span["args"]["points"] == 6
        assert span["args"]["matrix_ops"] == sum(
            type(op) is MatrixOp for ops in (merged.ops, *merged.tails) for op in ops
        )
