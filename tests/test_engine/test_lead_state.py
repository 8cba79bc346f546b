"""Differential test: rows start from the program's lead state.

A program's leading ops that read no slot angle (``GateProgram.lead``: folded
matrix ops, slotless diagonal ops) reach one state whatever the row, so
``executor._execute_block`` starts every row from a copy of that state
(``GateProgram.lead_state``, built once) and runs only the rest.  The engine
used to run the whole shared pass from ``|0...0>``
(``tests/_reference/engine.py``); the states must be byte-equal over random
1-5 qubit programs whose constant lead is anything from empty to the whole
program, followed by parameterized ops, merged templates and ``blocks``.  The
memoized state is read-only and never shared with a returned stack.
"""

from unittest import mock

import numpy as np
from _reference import engine as reference
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import Parameter, QuantumCircuit
from repro.engine import compile_circuit, execute_program, executor, merge_programs

PARAMETERS = [Parameter(f"p{i}") for i in range(3)]
CONSTANT_1Q = ("h", "x", "y", "z", "s", "sdg", "t", "sx")
CONSTANT_2Q = ("cx", "cz", "swap")
ROTATION_1Q = ("rx", "ry", "rz")
ROTATION_2Q = ("rzz", "cp")


def _gates(draw, num_qubits, names_1q, names_2q, count, angle=None):
    gates = []
    for _ in range(count):
        two = num_qubits > 1 and draw(st.booleans())
        name = draw(st.sampled_from(names_2q if two else names_1q))
        wires = draw(st.permutations(range(num_qubits)))[: 2 if two else 1]
        gates.append((name, tuple(wires), *([draw(angle)] if angle is not None else [])))
    return gates


def _circuit(num_qubits, gate_list) -> QuantumCircuit:
    circuit = QuantumCircuit(num_qubits)
    for name, wires, *angle in gate_list:
        getattr(circuit, name)(*angle, *wires)
    return circuit


@st.composite
def programs(draw):
    """A merged program over 1-3 templates: a constant lead of 0..8 gates,
    parameterized gates (when any), then a per-template constant tail."""
    n = draw(st.integers(1, 5))
    lead = _gates(draw, n, CONSTANT_1Q, CONSTANT_2Q, draw(st.integers(0, 8)))
    angles = st.one_of(st.sampled_from(PARAMETERS), st.floats(-3.0, 3.0, allow_nan=False))
    body = _gates(draw, n, ROTATION_1Q, ROTATION_2Q, draw(st.integers(0, 4)), angles)
    body += _gates(draw, n, CONSTANT_1Q, CONSTANT_2Q, draw(st.integers(0, 3)))
    tails = [
        _gates(draw, n, CONSTANT_1Q, CONSTANT_2Q, draw(st.integers(0, 3)))
        for _ in range(draw(st.integers(1, 3)))
    ]
    return merge_programs([compile_circuit(_circuit(n, lead + body + tail)) for tail in tails])


@given(
    program=programs(),
    points=st.integers(1, 6),
    mode=st.sampled_from(["plain", "blocks"]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_states_are_byte_equal_to_the_pass_from_zero(program, points, mode, seed):
    stride = program.stride
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(-np.pi, np.pi, (points * stride, program.num_slots))
    kwargs = {}
    if mode == "blocks":
        first = int(rng.integers(0, points + 1))
        kwargs["blocks"] = [b * stride for b in (first, points - first) if b]
    got = execute_program(program, thetas, **kwargs)
    with mock.patch.object(executor, "_execute_block", reference.execute_block):
        expected = execute_program(program, thetas, **kwargs)
    assert got.dtype == expected.dtype == np.complex128
    assert got.tobytes() == expected.tobytes()

    lead = program.lead_state
    assert not lead.flags.writeable and lead.shape == (program.dim,)
    assert not np.shares_memory(got, lead)
    got[:] = 0.5  # the caller's to mutate: the next run starts clean
    assert execute_program(program, thetas, **kwargs).tobytes() == expected.tobytes()


def test_the_qaoa_program_leads_with_its_hadamard_layer(qaoa_problem):
    """The ring QAOA's four ``h`` gates are its lead; the program builds it once."""
    template = qaoa_problem.estimator.template_circuits()[0]
    program = compile_circuit(template)
    assert program.lead == 4 and program.num_ops > 4
    thetas = np.random.default_rng(3).uniform(-np.pi, np.pi, (5, program.num_slots))
    execute_program(program, thetas)
    state = program.lead_state
    execute_program(program, thetas)
    assert program.lead_state is state
    assert np.allclose(state, np.full(16, 0.25))
    assert program.pass_plans[0].ops == program.ops[4:]


def test_a_program_that_opens_with_an_angle_starts_from_zero():
    circuit = QuantumCircuit(2).rx(PARAMETERS[0], 0).h(1)
    program = compile_circuit(circuit)
    assert program.lead == 0
    execute_program(program, [[0.3]])
    zero = program.lead_state
    assert zero.tolist() == [1, 0, 0, 0]
