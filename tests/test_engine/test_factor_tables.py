"""Differential test: factor tables per gate kind vs one factor per element.

A pass builds its runtime rotation factors one array per gate kind
(``executor._runtime_factors`` over a ``PassPlan`` memoized on the program);
the library used to build each element's factor alone
(``tests/_reference/engine.py``).  Every combined ``(batch, k, k)`` stack an
op contracts must be byte-equal to the per-element one and C-contiguous, and
so must ``execute_program``'s output — over random programs with ``rx``/
``ry``/``rz``/``rzz``/``cp`` factors, lifts onto either wire of a pair,
merged tails and ``blocks``.
"""

from unittest import mock

import numpy as np
from _reference import engine as reference
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import Parameter, QuantumCircuit
from repro.engine import compile_circuit, execute_program, merge_programs
from repro.engine import executor
from repro.engine.program import MatrixOp

NUM_QUBITS = 3
PARAMETERS = [Parameter(f"p{i}") for i in range(3)]
CONSTANT_1Q = ("h", "x", "s", "sx")
CONSTANT_2Q = ("cx", "cz")
ROTATION_1Q = ("rx", "ry", "rz")
ROTATION_2Q = ("rzz", "cp")

qubits = st.integers(min_value=0, max_value=NUM_QUBITS - 1)
pairs = st.tuples(qubits, qubits).filter(lambda pair: pair[0] != pair[1])
angles = st.one_of(st.integers(0, len(PARAMETERS) - 1), st.floats(-3.0, 3.0, allow_nan=False))
gates = st.one_of(
    st.tuples(st.sampled_from(CONSTANT_1Q), qubits),
    st.tuples(st.sampled_from(CONSTANT_2Q), pairs),
    st.tuples(st.sampled_from(ROTATION_1Q), qubits, angles),
    st.tuples(st.sampled_from(ROTATION_2Q), pairs, angles),
)


def _circuit(gate_list) -> QuantumCircuit:
    circuit = QuantumCircuit(NUM_QUBITS)
    for name, where, *angle in gate_list:
        wires = where if isinstance(where, tuple) else (where,)
        args = []
        if angle:
            value = angle[0]
            args = [PARAMETERS[value] if isinstance(value, int) else value]
        getattr(circuit, name)(*args, *wires)
    return circuit


@st.composite
def programs(draw):
    """A plain or merged program: a shared prefix, then one tail per template
    (tails share the slot-gate table, so they differ only in constants)."""
    prefix = draw(st.lists(gates, max_size=10))
    suffixes = draw(
        st.lists(
            st.lists(st.tuples(st.sampled_from(CONSTANT_1Q), qubits), max_size=3),
            min_size=1,
            max_size=3,
        )
    )
    closing = draw(st.lists(st.tuples(st.sampled_from(ROTATION_1Q), qubits, angles), max_size=3))
    return merge_programs(
        [compile_circuit(_circuit([*prefix, *suffix, *closing])) for suffix in suffixes]
    )


def _passes(program, thetas):
    """Each pass's plan with the angle rows it runs on."""
    shared, tails = program.pass_plans
    stride = program.stride
    return [(shared, thetas)] + [
        (plan, np.ascontiguousarray(thetas[offset::stride])) for offset, plan in enumerate(tails)
    ]


def _check_tables(program, thetas):
    for plan, rows in _passes(program, thetas):
        tables = executor._runtime_factors(plan, rows)
        for table in tables[:-1]:
            for factor in table:
                assert factor.flags.c_contiguous and factor.dtype == np.complex128
                assert factor.shape[0] == rows.shape[0]
        for op, factors in zip(plan.ops, plan.factors):
            if not factors:
                continue
            combined = None
            for table, position in factors:
                factor = tables[table][position]
                combined = factor if combined is None else factor @ combined
            expected = reference.combined_matrices(op, rows)
            assert combined.flags.c_contiguous
            assert combined.dtype == expected.dtype and combined.shape == expected.shape
            assert combined.tobytes() == expected.tobytes()


def _execute_both(program, thetas, **kwargs):
    tables = execute_program(program, thetas, **kwargs)
    with mock.patch.object(executor, "_runtime_factors", reference.runtime_factors):
        per_element = execute_program(program, thetas, **kwargs)
    return tables, per_element


class TestFactorTables:
    @given(
        program=programs(),
        points=st.integers(1, 7),
        mode=st.sampled_from(["plain", "blocks"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_combined_stacks_and_states_are_byte_equal(self, program, points, mode, seed):
        stride = program.stride
        rng = np.random.default_rng(seed)
        thetas = rng.uniform(-np.pi, np.pi, (points * stride, program.num_slots))
        _check_tables(program, thetas)
        kwargs = {}
        if mode == "blocks":
            first = int(rng.integers(0, points + 1))
            kwargs["blocks"] = [b * stride for b in (first, points - first) if b]
        tables, per_element = _execute_both(program, thetas, **kwargs)
        assert tables.dtype == per_element.dtype == np.complex128
        assert tables.tobytes() == per_element.tobytes()

    def test_every_gate_kind_and_lift_side_is_covered(self):
        # Fusion places each rotation: rz joins the run of the rx/ry before it
        # on its wire, cx(0, 1) lifts wire 0's run onto the pair's wire 0 and
        # wire 1's (with its h) onto wire 1, rzz and cp join the pair's run,
        # and wire 2's run stays a plain single-qubit op.
        gate_list = [("rx", 0, 0), ("ry", 0, 1), ("rz", 0, 2)]
        gate_list += [("rx", 1, 1), ("ry", 1, 2), ("rz", 1, 0), ("h", 1), ("cx", (0, 1))]
        gate_list += [("rzz", (0, 1), 0), ("cp", (0, 1), 1)]
        gate_list += [("rx", 2, 0), ("ry", 2, 0.3), ("rz", 2, 1)]
        program = compile_circuit(_circuit(gate_list))
        plan = program.pass_plans[0]
        kinds = {gate: (plain, lifted0, len(slots)) for gate, slots, plain, lifted0 in plan.kinds}
        assert kinds == {
            "rx": (1, 2, 3),  # one plain, one on wire 0, one on wire 1
            "ry": (1, 2, 3),
            "rz": (1, 2, 3),
            "rzz": (1, 1, 1),
            "cp": (1, 1, 1),
        }
        assert plan.constants  # h and cx fold into one constant factor
        thetas = np.random.default_rng(7).uniform(-np.pi, np.pi, (5, program.num_slots))
        _check_tables(program, thetas)
        tables, per_element = _execute_both(program, thetas)
        assert tables.tobytes() == per_element.tobytes()

    def test_plans_are_memoized_on_the_program(self):
        program = compile_circuit(_circuit([("rx", 0, 0), ("cx", (0, 1)), ("ry", 1, 1)]))
        assert program.pass_plans is program.pass_plans
        shared = program.pass_plans[0]
        assert [bool(factors) for factors in shared.factors] == [
            type(op) is MatrixOp and op.tensor is None for op in shared.ops
        ]
