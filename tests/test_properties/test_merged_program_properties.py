"""Differential properties of merged gate programs and the job-wide noise tail.

A sweep's templates run as *one* merged program: the ops their compiled
programs share execute once over every row, each template's remaining ops on
its own rows.  The claim checked here is the strong one the seeded goldens
rest on — every row of the merged execution is **bitwise** the row the
template's own program produces when executed alone — over random template
families whose shared run ranges from nothing to the whole program.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import Parameter, QuantumCircuit
from repro.circuit.sweep import ParameterSweep
from repro.engine import execute_program, merge_programs, shared_program_cache
from repro.simulator.mixing import MixingNoiseSpec, noisy_probabilities_batch

NUM_QUBITS = 3
CONSTANT_1Q = ("h", "x", "s", "sdg", "t", "sx")
CONSTANT_2Q = ("cx", "cz")
ROTATION_1Q = ("rx", "ry", "rz")
ROTATION_2Q = ("rzz", "cp")

qubits = st.integers(min_value=0, max_value=NUM_QUBITS - 1)
pairs = st.tuples(qubits, qubits).filter(lambda pair: pair[0] != pair[1])
#: An angle is a free parameter, an affine expression of one, or a constant.
angles = st.one_of(
    st.tuples(st.just("free"), st.integers(0, 7)),
    st.tuples(st.just("affine"), st.integers(0, 7)),
    st.tuples(st.just("const"), st.floats(-3.0, 3.0, allow_nan=False)),
)
constant_gates = st.one_of(
    st.tuples(st.sampled_from(CONSTANT_1Q), qubits),
    st.tuples(st.sampled_from(CONSTANT_2Q), pairs),
)
any_gates = st.one_of(
    constant_gates,
    st.tuples(st.sampled_from(ROTATION_1Q), qubits, angles),
    st.tuples(st.sampled_from(ROTATION_2Q), pairs, angles),
)


def _angle(spec, parameters):
    kind, value = spec
    if kind == "const":
        return value
    parameter = parameters[value % len(parameters)]
    return parameter if kind == "free" else parameter * 0.5 + 0.25


def _append(circuit: QuantumCircuit, gate, parameters) -> None:
    name, where, *angle = gate
    wires = where if isinstance(where, tuple) else (where,)
    args = [_angle(angle[0], parameters)] if angle else []
    getattr(circuit, name)(*args, *wires)


def _family(prefix, suffixes, num_parameters) -> list[QuantumCircuit]:
    """Templates ``prefix + suffix_t + sink``, all over the same parameters.

    The closing ``rz`` layer makes every template use every parameter (a
    sweep requires it) and gives each tail a parameterized op of its own.
    """
    parameters = [Parameter(f"p{i}") for i in range(num_parameters)]
    templates = []
    for suffix in suffixes:
        circuit = QuantumCircuit(NUM_QUBITS)
        for gate in (*prefix, *suffix):
            _append(circuit, gate, parameters)
        for index, parameter in enumerate(parameters):
            circuit.rz(parameter, index % NUM_QUBITS)
        templates.append(circuit.measure_all())
    return templates


families = st.builds(
    _family,
    prefix=st.lists(any_gates, max_size=8),
    suffixes=st.lists(st.lists(constant_gates, max_size=4), min_size=1, max_size=4),
    num_parameters=st.integers(1, 3),
)
#: Tails that carry parameterized gates of their own: slot tables may differ,
#: so one sweep can lower to several uniform jobs.
loose_families = st.builds(
    _family,
    prefix=st.lists(any_gates, max_size=6),
    suffixes=st.lists(st.lists(any_gates, max_size=4), min_size=1, max_size=4),
    num_parameters=st.integers(1, 3),
)


class TestMergedExecution:
    @given(family=families, points=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_rows_are_bitwise_the_separate_executions(self, family, points, seed):
        cache = shared_program_cache()
        programs = [cache.get_or_compile(template) for template in family]
        merged = merge_programs(programs)
        stride = len(programs)
        assert merged.stride == stride
        # Every row gets angles of its own (what a per-row coherent bias does).
        rng = np.random.default_rng(seed)
        thetas = rng.uniform(-np.pi, np.pi, (points * stride, merged.num_slots))
        states = execute_program(merged, thetas)
        assert states.shape == (points * stride, merged.dim)
        for offset, program in enumerate(programs):
            alone = execute_program(program, thetas[offset::stride])
            assert states[offset::stride].tobytes() == alone.tobytes()

    @given(family=families)
    @settings(max_examples=60, deadline=None)
    def test_shared_run_plus_tail_is_each_program(self, family):
        programs = [
            shared_program_cache().get_or_compile(template) for template in family
        ]
        merged = merge_programs(programs)
        if len(programs) == 1:
            assert merged is programs[0]
            return
        for program, tail in zip(programs, merged.tails):
            assert len(merged.ops) + len(tail) == len(program.ops)
            assert tail == program.ops[len(merged.ops):]


class TestJobWideNoiseTail:
    @given(
        family=loose_families,
        points=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        readout=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_sweep_rows_match_per_circuit_probabilities(
        self, family, points, seed, readout
    ):
        rng = np.random.default_rng(seed)
        num_parameters = len(family[0].parameters)
        sweep = ParameterSweep(
            family, rng.uniform(-np.pi, np.pi, (points, num_parameters))
        )
        specs = [
            MixingNoiseSpec(
                success_probability=rng.uniform(0.3, 1.0),
                coherent_bias=rng.uniform(-0.05, 0.05),
                per_qubit_readout=tuple(
                    (rng.uniform(0.0, 0.1), rng.uniform(0.0, 0.1))
                    for _ in range(NUM_QUBITS)
                )
                if readout
                else (),
            )
            for _ in range(len(sweep))
        ]
        batched = noisy_probabilities_batch(sweep, specs)
        assert len(batched) == len(sweep)
        for circuit, spec, row in zip(sweep.bound_circuits(), specs, batched):
            (reference,) = noisy_probabilities_batch([circuit], [spec])
            assert np.max(np.abs(row - reference)) <= 1e-12
