"""Compiled gate-program data model.

A :class:`GateProgram` is the lowered form of one circuit *structure*: a flat
tuple of numeric ops plus a table of parameter *slots* (one per parameterized
gate position, in instruction order).  Executing a program never touches
:class:`~repro.circuit.circuit.QuantumCircuit` objects — it consumes a raw
``(batch, num_slots)`` float matrix of gate angles, which is what makes
parameter sweeps zero-rebind.

Two op kinds exist after compilation:

* :class:`MatrixOp` — a (possibly fused) small unitary applied to one wire or
  one wire pair through a single precompiled ``einsum`` contraction.  A fully
  constant op stores the folded matrix; an op with angle-dependent factors
  stores its factor list (:class:`RunElement`) and builds the combined
  ``(batch, 2^k, 2^k)`` stack at execution time (tiny matrices — the cost is
  O(batch·4^k), not O(batch·2^n)).
* :class:`DiagonalOp` — a run of diagonal gates (``rz``/``z``/``s``/``sdg``/
  ``t``/``cz``/``rzz``/``cp``) collapsed to one elementwise phase multiply:
  ``state *= const_phase * exp(i · thetas @ coeffs)`` over precomputed
  per-basis-index exponent masks.  No matmul, no axis moves, no state copy.

A sweep's templates — one ansatz under several measurement bases — compile
to programs that agree op for op until their basis-change tails;
:func:`merge_programs` folds them into one *merged* program that runs the
agreeing ops once over every row of the job (``GateProgram.tails``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from ..circuit.circuit import QuantumCircuit
from ..circuit.parameters import Parameter, ParameterExpression

__all__ = [
    "RunElement",
    "MatrixOp",
    "DiagonalOp",
    "GateProgram",
    "merge_programs",
    "ParameterPlan",
    "parameter_plan",
    "plan_slot_values",
    "slot_values_from_circuits",
]


@dataclass(frozen=True)
class RunElement:
    """One factor of a fused matrix op, applied in list order.

    Either a constant matrix already expressed on the op's full local space,
    or a runtime-built rotation identified by gate name and parameter slot.
    ``lift`` places a single-qubit runtime factor inside a two-qubit run:
    0 lifts onto the pair's first (most significant) wire, 1 onto the second.
    """

    matrix: np.ndarray | None
    gate: str = ""
    slot: int = -1
    lift: int = -1


@dataclass(frozen=True)
class MatrixOp:
    """A small unitary on ``qubits``, applied via one einsum contraction.

    ``matrix``/``tensor`` are set for fully constant (folded) ops; otherwise
    ``elements`` holds the factor list multiplied together at execution time
    (first element acts first: combined = e_k @ ... @ e_1).
    """

    qubits: tuple[int, ...]
    subscripts: str
    subscripts_batched: str
    matrix: np.ndarray | None = None
    tensor: np.ndarray | None = None
    elements: tuple[RunElement, ...] = ()


@dataclass(frozen=True)
class DiagonalOp:
    """An elementwise phase multiply over the full state.

    ``phase`` is the constant part (``None`` when trivially one); ``slots``
    and ``coeffs`` describe the angle-linear part: the batch phase is
    ``exp(1j * thetas[:, slots] @ coeffs)`` with ``coeffs`` of shape
    ``(len(slots), 2**n)``.
    """

    phase: np.ndarray | None = None
    slots: tuple[int, ...] = ()
    coeffs: np.ndarray | None = None


@dataclass(frozen=True)
class GateProgram:
    """A compiled circuit structure: flat ops plus the parameter-slot table."""

    num_qubits: int
    ops: tuple
    #: Instruction index (into ``circuit.instructions``) of each slot.
    slot_positions: tuple[int, ...]
    #: Gate name of each slot (``rx``/``ry``/``rz``/``rzz``/``cp``).
    slot_gates: tuple[str, ...]
    #: Unitary gate count of the source structure (before fusion).
    source_gates: int
    #: Merged programs only (:func:`merge_programs`): the batch interleaves
    #: ``len(tails)`` templates, ``ops`` is the part they share and runs on
    #: every row, then ``tails[t]`` runs on rows ``t::len(tails)``.
    tails: tuple[tuple, ...] = ()

    @property
    def dim(self) -> int:
        return 1 << self.num_qubits

    @property
    def stride(self) -> int:
        """Templates interleaved in the batch rows (1 for a plain program)."""
        return len(self.tails) or 1

    @property
    def num_slots(self) -> int:
        return len(self.slot_positions)

    @property
    def num_ops(self) -> int:
        return len(self.ops)

    @cached_property
    def lead(self) -> int:
        """How many leading ``ops`` read no slot angle (folded matrix ops,
        slotless diagonal ops): every row reaches the same state after them."""
        for count, op in enumerate(self.ops):
            if (op.tensor is None) if type(op) is MatrixOp else op.slots:
                return count
        return len(self.ops)

    @cached_property
    def lead_states(self) -> dict[np.dtype, np.ndarray]:
        """The read-only state ``ops[:lead]`` reach from ``|0...0>``, per
        execution dtype (filled on first use by the executor)."""
        return {}

    @cached_property
    def pass_plans(self) -> tuple["PassPlan", tuple["PassPlan", ...]]:
        """The :class:`PassPlan` of ``ops[lead:]`` and of each tail (built once)."""
        return PassPlan.of(self.ops[self.lead :]), tuple(PassPlan.of(tail) for tail in self.tails)


@dataclass(frozen=True)
class PassPlan:
    """An op tuple with its runtime factors by gate kind: ``kinds[g] = (gate, slots,
    plain, lifted0)`` holds the gate's slots (unlifted, onto wire 0, onto wire 1)
    and where the first two runs end; op ``i``'s factors are ``factors[i]``, as
    ``(table, position)`` — table ``g`` is kind ``g``, the last ``constants``."""

    ops: tuple
    kinds: tuple[tuple[str, np.ndarray, int, int], ...]
    constants: tuple[np.ndarray, ...]
    factors: tuple[tuple[tuple[int, int], ...], ...]

    @classmethod
    def of(cls, ops: tuple) -> "PassPlan":
        rows = [op.elements if type(op) is MatrixOp and op.tensor is None else () for op in ops]
        elements = [element for row in rows for element in row]
        gates = list(dict.fromkeys(e.gate for e in elements if e.matrix is None))
        tables = [sorted((e for e in elements if e.matrix is None and e.gate == gate),
                         key=lambda e: e.lift) for gate in gates]
        tables.append([e for e in elements if e.matrix is not None])
        where = {id(e): (t, p) for t, table in enumerate(tables) for p, e in enumerate(table)}
        kinds = []
        for gate, table in zip(gates, tables):
            lifts = [e.lift for e in table]
            slots = np.array([e.slot for e in table], dtype=np.intp)
            kinds.append((gate, slots, lifts.count(-1), lifts.count(-1) + lifts.count(0)))
        return cls(ops, tuple(kinds), tuple(e.matrix for e in tables[-1]),
                   tuple(tuple(where[id(e)] for e in row) for row in rows))


def _same_array(a: np.ndarray | None, b: np.ndarray | None) -> bool:
    return (a is None and b is None) or (
        a is not None and b is not None and np.array_equal(a, b)
    )


def _same_op(a, b) -> bool:
    """Whether two compiled ops perform the identical per-row arithmetic."""
    if type(a) is not type(b):
        return False
    if type(a) is DiagonalOp:
        return (
            a.slots == b.slots
            and _same_array(a.phase, b.phase)
            and _same_array(a.coeffs, b.coeffs)
        )
    return (
        a.qubits == b.qubits
        and _same_array(a.matrix, b.matrix)
        and len(a.elements) == len(b.elements)
        and all(
            (x.gate, x.slot, x.lift) == (y.gate, y.slot, y.lift)
            and _same_array(x.matrix, y.matrix)
            for x, y in zip(a.elements, b.elements)
        )
    )


def merge_programs(programs: Sequence[GateProgram]) -> GateProgram:
    """Fold the programs of a sweep's templates into one merged program.

    The merged program executes a batch whose rows interleave the templates
    (row ``r`` belongs to template ``r % T`` — a sweep's flat order): the
    leading run of ops all programs agree on runs once over every row, then
    each program's remaining ops run on its own rows.  Programs that agree
    on nothing keep their whole op lists as tails; a single program is
    returned as is.  All programs must share one width and one slot-gate
    table, so a row of slot angles means the same to every op that reads it.
    """
    first = programs[0]
    if len(programs) == 1:
        return first
    for program in programs[1:]:
        if program.num_qubits != first.num_qubits or program.slot_gates != first.slot_gates:
            raise ValueError("merged programs must share a width and a slot-gate table")
    shared = 0
    for column in zip(*(program.ops for program in programs)):
        if not all(_same_op(column[0], op) for op in column[1:]):
            break
        shared += 1
    return GateProgram(
        num_qubits=first.num_qubits,
        ops=first.ops[:shared],
        slot_positions=first.slot_positions,
        slot_gates=first.slot_gates,
        source_gates=sum(program.source_gates for program in programs),
        tails=tuple(program.ops[shared:] for program in programs),
    )


# ---------------------------------------------------------------------------
# Parameter plans: template parameter vector -> slot angle matrix
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParameterPlan:
    """Affine map from a flat parameter vector to a program's slot angles.

    Slot ``s`` receives ``coeff[s] * theta[param_index[s]] + offset[s]``;
    slots with ``param_index == -1`` are constants (bound floats in the
    template) and receive ``offset[s]`` alone.  This covers every angle form
    the circuit IR can express (floats, free parameters, affine expressions
    such as QAOA's weighted cost layers).
    """

    num_parameters: int
    param_index: np.ndarray
    coeff: np.ndarray
    offset: np.ndarray


def parameter_plan(
    circuit: QuantumCircuit,
    program: GateProgram,
    parameters: Sequence[Parameter] | None = None,
) -> ParameterPlan:
    """Build the slot-angle plan for a template compiled into ``program``.

    Args:
        circuit: the (possibly parameterized) template the program was
            compiled from — instruction positions must line up.
        program: the compiled program.
        parameters: the flat parameter ordering callers bind with
            (default: ``circuit.ordered_parameters()``, the
            ``assign_by_order`` convention).
    """
    params = list(parameters) if parameters is not None else circuit.ordered_parameters()
    index = {p: i for i, p in enumerate(params)}
    count = program.num_slots
    param_index = np.full(count, -1, dtype=np.intp)
    coeff = np.zeros(count, dtype=float)
    offset = np.zeros(count, dtype=float)
    instructions = circuit.instructions
    for slot, position in enumerate(program.slot_positions):
        value = instructions[position].params[0]
        if isinstance(value, Parameter):
            if value not in index:
                raise ValueError(f"parameter {value.name!r} missing from the plan ordering")
            param_index[slot] = index[value]
            coeff[slot] = 1.0
        elif isinstance(value, ParameterExpression):
            if value.parameter not in index:
                raise ValueError(
                    f"parameter {value.parameter.name!r} missing from the plan ordering"
                )
            param_index[slot] = index[value.parameter]
            coeff[slot] = value.coeff
            offset[slot] = value.offset
        else:
            offset[slot] = float(value)
    return ParameterPlan(len(params), param_index, coeff, offset)


def plan_slot_values(plan: ParameterPlan, theta: np.ndarray) -> np.ndarray:
    """Map a ``(points, P)`` parameter matrix to ``(points, S)`` slot angles."""
    theta = np.atleast_2d(np.asarray(theta, dtype=float))
    if theta.shape[1] != plan.num_parameters:
        raise ValueError(
            f"expected {plan.num_parameters} parameters per point, got {theta.shape[1]}"
        )
    out = np.broadcast_to(plan.offset, (theta.shape[0], plan.offset.size)).copy()
    bound = plan.param_index >= 0
    if np.any(bound):
        out[:, bound] += theta[:, plan.param_index[bound]] * plan.coeff[bound]
    return out


def slot_values_from_circuits(
    program: GateProgram, circuits: Sequence[QuantumCircuit]
) -> np.ndarray:
    """Extract the ``(batch, S)`` slot-angle matrix from bound circuits.

    Every circuit must share the program's structure; angles are read straight
    off the instruction records, so no binding or simulation happens here.
    """
    out = np.empty((len(circuits), program.num_slots), dtype=float)
    positions = program.slot_positions
    for row, circuit in enumerate(circuits):
        instructions = circuit.instructions
        for col, position in enumerate(positions):
            out[row, col] = float(instructions[position].params[0])
    return out
