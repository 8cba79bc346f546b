"""Lowering circuits into :class:`~repro.engine.program.GateProgram` objects.

The compiler walks a circuit's instruction list once and emits a flat op
sequence, performing three structural optimizations:

* **adjacent-gate fusion** — runs of single-qubit gates on one wire collapse
  to one 2×2 factor chain; consecutive two-qubit gates on the same wire pair
  collapse to one 4×4 chain (single-qubit gates sandwiched between them are
  lifted into the pair).  Constant factors are folded at compile time, so a
  run like ``h·s·h`` becomes a single constant matrix; runs containing
  rotations keep per-factor records and build their combined small matrix at
  execution time.
* **diagonal specialization** — ``rz``/``z``/``s``/``sdg``/``t``/``cz``/
  ``rzz``/``cp``/``id`` compile to elementwise phase multiplies.  Because
  diagonal gates commute with each other, a whole region of them (QAOA cost
  layers being the canonical case) merges into a *single*
  :class:`DiagonalOp` regardless of which wires the individual gates touch.
* **dead-op elimination** — identity gates and all-one phase vectors are
  dropped.

Correctness of the greedy reordering is maintained through wire ownership:
every placed gate takes ownership of its wires, and a gate may only join an
earlier op when that op still owns every wire the gate touches (or, for
diagonal merges, when the owning op precedes the diagonal group — diagonal
gates commute across anything that does not share a wire with them).
"""

from __future__ import annotations

import math

import numpy as np

from ..circuit.circuit import QuantumCircuit
from ..circuit.gates import GATE_SPECS, gate_matrix
from .program import DiagonalOp, GateProgram, MatrixOp, RunElement

__all__ = ["compile_circuit", "DIAGONAL_GATES"]

#: Constant diagonal gates and their local phase vectors.
_DIAG_CONST: dict[str, np.ndarray] = {
    "id": np.array([1.0, 1.0], dtype=complex),
    "z": np.array([1.0, -1.0], dtype=complex),
    "s": np.array([1.0, 1.0j], dtype=complex),
    "sdg": np.array([1.0, -1.0j], dtype=complex),
    "t": np.array([1.0, np.exp(1j * math.pi / 4)], dtype=complex),
    "cz": np.array([1.0, 1.0, 1.0, -1.0], dtype=complex),
}

#: Parameterized diagonal gates: local per-basis-state exponent coefficients
#: (the gate's diagonal is ``exp(1j * theta * coeffs)``).
_DIAG_SLOT: dict[str, np.ndarray] = {
    "rz": np.array([-0.5, 0.5]),
    "rzz": np.array([-0.5, 0.5, 0.5, -0.5]),
    "cp": np.array([0.0, 0.0, 0.0, 1.0]),
}

#: Every gate name the compiler treats as diagonal.
DIAGONAL_GATES = frozenset(_DIAG_CONST) | frozenset(_DIAG_SLOT)

_SWAP4 = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)

_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXY"
_BATCH = "Z"


def _lift_diag(local: np.ndarray, qubits: tuple[int, ...], num_qubits: int) -> np.ndarray:
    """Expand a local diagonal (phase or exponent) to the full 2**n register.

    Index bit convention matches the simulator: qubit 0 is the most
    significant bit of a basis-state index.
    """
    dim = 1 << num_qubits
    index = np.arange(dim)
    local_index = np.zeros(dim, dtype=np.intp)
    for q in qubits:
        local_index = (local_index << 1) | ((index >> (num_qubits - 1 - q)) & 1)
    return np.asarray(local)[local_index]


def _einsum_subscripts(qubits: tuple[int, ...], num_qubits: int) -> tuple[str, str]:
    """(constant, batched) einsum specs applying a gate on ``qubits``."""
    state = list(_LETTERS[:num_qubits])
    out_state = list(state)
    gate_out = []
    for j, q in enumerate(qubits):
        fresh = _LETTERS[num_qubits + j]
        gate_out.append(fresh)
        out_state[q] = fresh
    gate_in = [state[q] for q in qubits]
    gate = "".join(gate_out) + "".join(gate_in)
    spec = f"{gate},{_BATCH}{''.join(state)}->{_BATCH}{''.join(out_state)}"
    spec_batched = f"{_BATCH}{spec}"
    return spec, spec_batched


class _DiagBuilder:
    kind = "diag"

    def __init__(self, seq: int, num_qubits: int) -> None:
        self.seq = seq
        self.num_qubits = num_qubits
        self.phase: np.ndarray | None = None
        self.slots: list[int] = []
        self.coeffs: list[np.ndarray] = []

    def add(self, name: str, slot: int | None, qubits: tuple[int, ...]) -> None:
        if slot is None:
            lifted = _lift_diag(_DIAG_CONST[name], qubits, self.num_qubits)
            self.phase = lifted if self.phase is None else self.phase * lifted
        else:
            self.slots.append(slot)
            self.coeffs.append(
                _lift_diag(_DIAG_SLOT[name], qubits, self.num_qubits).astype(float)
            )


class _RunBuilder:
    kind = "run"

    def __init__(self, seq: int, qubits: tuple[int, ...]) -> None:
        self.seq = seq
        self.qubits = qubits
        self.elements: list[RunElement] = []
        self.dead = False

    # -- factor accumulation -------------------------------------------
    def append_const(self, matrix: np.ndarray) -> None:
        if self.elements and self.elements[-1].matrix is not None:
            self.elements[-1] = RunElement(matrix @ self.elements[-1].matrix)
        else:
            self.elements.append(RunElement(np.asarray(matrix, dtype=complex)))

    def add(self, name: str, slot: int | None, qubits: tuple[int, ...]) -> None:
        """Append one gate, localizing it onto this run's qubit space."""
        if slot is None:
            matrix = gate_matrix(name)
            if qubits == self.qubits:
                pass
            elif len(qubits) == 1 and len(self.qubits) == 2:
                position = self.qubits.index(qubits[0])
                matrix = np.kron(matrix, np.eye(2)) if position == 0 else np.kron(np.eye(2), matrix)
            elif len(qubits) == 2 and tuple(reversed(qubits)) == self.qubits:
                matrix = _SWAP4 @ matrix @ _SWAP4
            else:
                raise ValueError(f"gate on {qubits} cannot join a run on {self.qubits}")
            self.append_const(matrix)
            return
        if len(qubits) == 1 and len(self.qubits) == 2:
            self.elements.append(
                RunElement(None, gate=name, slot=slot, lift=self.qubits.index(qubits[0]))
            )
        else:
            # 2q parameterized gates in the alphabet (rzz, cp) are symmetric,
            # so a reversed pair needs no permutation.
            self.elements.append(RunElement(None, gate=name, slot=slot))


def compile_circuit(circuit: QuantumCircuit) -> GateProgram:
    """Lower a circuit structure into a flat numeric gate program.

    Parameter *values* are ignored entirely: every parameterized gate becomes
    a runtime slot, so one program serves any binding of the same structure.
    Measurement and barrier directives are skipped (the executor produces the
    full final state; callers marginalize over the measured register).
    """
    n = circuit.num_qubits
    builders: list[_DiagBuilder | _RunBuilder] = []
    owner: dict[int, _DiagBuilder | _RunBuilder] = {}
    open_diag: _DiagBuilder | None = None
    slot_positions: list[int] = []
    slot_gates: list[str] = []
    source_gates = 0

    for position, inst in enumerate(circuit.instructions):
        if not inst.is_unitary:
            continue
        source_gates += 1
        name, qubits = inst.name, inst.qubits
        slot: int | None = None
        if GATE_SPECS[name].num_params:
            slot = len(slot_positions)
            slot_positions.append(position)
            slot_gates.append(name)

        if name in DIAGONAL_GATES:
            run = _matching_run(owner, qubits)
            if run is not None:
                run.add(name, slot, qubits)
            elif open_diag is not None and all(
                owner.get(q) is None
                or owner[q] is open_diag
                or owner[q].seq < open_diag.seq
                for q in qubits
            ):
                open_diag.add(name, slot, qubits)
                for q in qubits:
                    owner[q] = open_diag
            else:
                open_diag = _DiagBuilder(len(builders), n)
                builders.append(open_diag)
                open_diag.add(name, slot, qubits)
                for q in qubits:
                    owner[q] = open_diag
            continue

        # matrix path ----------------------------------------------------
        if len(qubits) == 1:
            target = owner.get(qubits[0])
            if isinstance(target, _RunBuilder) and qubits[0] in target.qubits:
                target.add(name, slot, qubits)
            else:
                run = _RunBuilder(len(builders), qubits)
                builders.append(run)
                run.add(name, slot, qubits)
                owner[qubits[0]] = run
        else:
            run = _matching_run(owner, qubits)
            if run is not None:
                run.add(name, slot, qubits)
            else:
                run = _RunBuilder(len(builders), qubits)
                builders.append(run)
                # Absorb pending single-qubit runs on either wire: their
                # factors commute past everything between them and this
                # op (nothing else touches the wire — they still own it).
                for wire in qubits:
                    pending = owner.get(wire)
                    if isinstance(pending, _RunBuilder) and pending.qubits == (wire,):
                        position_in_pair = qubits.index(wire)
                        for element in pending.elements:
                            if element.matrix is not None:
                                lifted = (
                                    np.kron(element.matrix, np.eye(2))
                                    if position_in_pair == 0
                                    else np.kron(np.eye(2), element.matrix)
                                )
                                run.append_const(lifted)
                            else:
                                run.elements.append(
                                    RunElement(
                                        None,
                                        gate=element.gate,
                                        slot=element.slot,
                                        lift=position_in_pair,
                                    )
                                )
                        pending.dead = True
                run.add(name, slot, qubits)
                for q in qubits:
                    owner[q] = run

    ops = _emit(builders, n)
    return GateProgram(
        num_qubits=n,
        ops=tuple(ops),
        slot_positions=tuple(slot_positions),
        slot_gates=tuple(slot_gates),
        source_gates=source_gates,
    )


def _matching_run(
    owner: dict[int, _DiagBuilder | _RunBuilder], qubits: tuple[int, ...]
) -> _RunBuilder | None:
    """The run that owns all of ``qubits`` and acts on exactly that set."""
    if len(qubits) == 1:
        candidate = owner.get(qubits[0])
        if isinstance(candidate, _RunBuilder) and candidate.qubits == qubits:
            return candidate
        return None
    a, b = qubits
    candidate = owner.get(a)
    if (
        isinstance(candidate, _RunBuilder)
        and owner.get(b) is candidate
        and set(candidate.qubits) == {a, b}
    ):
        return candidate
    return None


def _emit(builders, num_qubits: int) -> list:
    ops: list = []
    for builder in builders:
        if isinstance(builder, _RunBuilder):
            if builder.dead or not builder.elements:
                continue
            subscripts, subscripts_batched = _einsum_subscripts(builder.qubits, num_qubits)
            k = len(builder.qubits)
            if len(builder.elements) == 1 and builder.elements[0].matrix is not None:
                matrix = builder.elements[0].matrix
                if np.allclose(matrix, np.eye(1 << k)):
                    continue
                ops.append(
                    MatrixOp(
                        qubits=builder.qubits,
                        subscripts=subscripts,
                        subscripts_batched=subscripts_batched,
                        matrix=matrix,
                        tensor=np.ascontiguousarray(matrix.reshape((2,) * (2 * k))),
                    )
                )
            else:
                ops.append(
                    MatrixOp(
                        qubits=builder.qubits,
                        subscripts=subscripts,
                        subscripts_batched=subscripts_batched,
                        elements=tuple(builder.elements),
                    )
                )
        else:
            phase = builder.phase
            if phase is not None and np.allclose(phase, 1.0):
                phase = None
            if not builder.slots and phase is None:
                continue
            ops.append(
                DiagonalOp(
                    phase=phase,
                    slots=tuple(builder.slots),
                    coeffs=np.vstack(builder.coeffs) if builder.coeffs else None,
                )
            )
    return ops
