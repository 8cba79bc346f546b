"""Dense statevector simulation.

This is the ideal (noise-free) execution engine.  Circuits in this library
are small (4–5 qubits for every experiment in the paper), so a dense
``2**n`` complex vector is both simple and fast.  A gate on ``k`` qubits
gathers the amplitudes into a contiguous ``(2**k, 2**(n-k))`` block with the
target qubits as rows, multiplies by the ``2**k`` unitary, and scatters the
product back; the index vectors of each ``(n, qubits)`` pair are built once.
:func:`simulate_statevector` compiles each circuit once into a dense plan.

Bit-ordering convention
-----------------------
Qubit 0 is the *most significant* bit of a basis-state label: for a 3-qubit
register the basis state ``|q0 q1 q2>`` with ``q0=1, q1=0, q2=1`` is the
string ``"101"`` and the amplitude index ``0b101 = 5``.  Measurement
bitstrings produced by the samplers follow the same convention.
"""

from __future__ import annotations

import weakref
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from ..circuit.circuit import QuantumCircuit
from ..circuit.gates import _ROTATIONS, gate_matrix
from ..circuit.parameters import Parameter, bind_value

__all__ = ["Statevector", "simulate_statevector"]


@lru_cache(maxsize=256)
def _gather_scatter(num_qubits: int, qubits: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, int]:
    """Read-only ``(gather, scatter, 2**k)`` index vectors for a gate on ``qubits``.

    ``vec[gather].reshape(2**k, -1)`` holds the amplitudes with ``qubits``
    (in the given order) as the row index, in the C order the other qubits
    keep; ``out.reshape(-1)[scatter]`` restores the register order.  The
    gathered block is the C-contiguous operand an axis move plus reshape
    would build, so the product is the same GEMM over the same bytes: the
    seeded histories pinned in the tests depend on that.
    """
    for q in qubits:
        if not 0 <= q < num_qubits:
            raise ValueError(f"qubit {q} out of range")
    if len(set(qubits)) != len(qubits):
        raise ValueError("duplicate qubits in gate application")
    rest = [q for q in range(num_qubits) if q not in qubits]
    register = np.arange(1 << num_qubits).reshape([2] * num_qubits)
    gather = register.transpose(list(qubits) + rest).reshape(-1)
    scatter = np.empty_like(gather)
    scatter[gather] = np.arange(gather.size)
    gather.setflags(write=False)
    scatter.setflags(write=False)
    return gather, scatter, 1 << len(qubits)


def _apply(vec: np.ndarray, matrix: np.ndarray, num_qubits: int, qubits: tuple[int, ...]) -> np.ndarray:
    gather, scatter, rows = _gather_scatter(num_qubits, qubits)
    return (matrix @ vec[gather].reshape(rows, -1)).reshape(-1)[scatter]


class Statevector:
    """A normalized pure state of ``num_qubits`` qubits."""

    def __init__(self, num_qubits: int, data: np.ndarray | None = None) -> None:
        if num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        self.num_qubits = int(num_qubits)
        dim = 1 << self.num_qubits
        if data is None:
            vec = np.zeros(dim, dtype=complex)
            vec[0] = 1.0
        else:
            vec = np.asarray(data, dtype=complex).reshape(dim).copy()
            norm = np.linalg.norm(vec)
            if norm == 0:
                raise ValueError("statevector must not be the zero vector")
            vec = vec / norm
        self._vec = vec

    # ------------------------------------------------------------------
    @property
    def data(self) -> np.ndarray:
        """The amplitude vector (copy)."""
        return self._vec.copy()

    @property
    def dim(self) -> int:
        return self._vec.size

    def copy(self) -> "Statevector":
        return Statevector(self.num_qubits, self._vec)

    # ------------------------------------------------------------------
    # gate application
    # ------------------------------------------------------------------
    def apply_matrix(self, matrix: np.ndarray, qubits: Sequence[int]) -> None:
        """Apply a unitary acting on ``qubits`` (in the given order) in place.

        The matrix is expressed in the basis ``|qubits[0] qubits[1] ...>``
        with ``qubits[0]`` the most significant bit of the local index.
        """
        k = len(qubits)
        if matrix.shape != (1 << k, 1 << k):
            raise ValueError(
                f"matrix of shape {matrix.shape} does not act on {k} qubits"
            )
        self._vec = _apply(self._vec, matrix, self.num_qubits, tuple(qubits))

    def apply_gate(self, name: str, qubits: Sequence[int], params: Sequence[float] = ()) -> None:
        """Apply a named gate (parameters must be bound floats)."""
        self.apply_matrix(gate_matrix(name, params), qubits)

    # ------------------------------------------------------------------
    # readout
    # ------------------------------------------------------------------
    def probabilities(self, qubits: Sequence[int] | None = None) -> np.ndarray:
        """Measurement probabilities over ``qubits`` (default: all, in order).

        The returned array has length ``2**len(qubits)`` and is indexed by
        the integer whose binary expansion is ``qubits[0] qubits[1] ...``
        (most significant first).
        """
        full = np.abs(self._vec) ** 2
        if qubits is None or tuple(qubits) == tuple(range(self.num_qubits)):
            return full
        qubits = list(qubits)
        n = self.num_qubits
        tensor = full.reshape([2] * n)
        keep = set(qubits)
        trace_axes = tuple(ax for ax in range(n) if ax not in keep)
        marg = tensor.sum(axis=trace_axes) if trace_axes else tensor
        # marg axes are the kept qubits in increasing index order; reorder to
        # follow the requested ordering.
        current = sorted(qubits)
        perm = [current.index(q) for q in qubits]
        marg = np.transpose(marg, perm)
        return marg.reshape(-1)

    def expectation_pauli(self, pauli_label: str) -> float:
        """Expectation value of a Pauli string such as ``"XZIY"``.

        The label's character ``i`` acts on qubit ``i``.  Identity positions
        may be written ``I``.
        """
        if len(pauli_label) != self.num_qubits:
            raise ValueError(
                f"Pauli label length {len(pauli_label)} does not match "
                f"{self.num_qubits} qubits"
            )
        single = {
            "I": np.eye(2, dtype=complex),
            "X": gate_matrix("x"),
            "Y": gate_matrix("y"),
            "Z": gate_matrix("z"),
        }
        vec = transformed = self._vec
        for qubit, label in enumerate(pauli_label.upper()):
            if label == "I":
                continue
            if label not in single:
                raise ValueError(f"invalid Pauli character {label!r}")
            transformed = _apply(transformed, single[label], self.num_qubits, (qubit,))
        value = np.vdot(vec, transformed)
        return float(np.real(value))

    def fidelity(self, other: "Statevector") -> float:
        """Squared overlap ``|<self|other>|^2``."""
        if other.num_qubits != self.num_qubits:
            raise ValueError("fidelity requires states of equal width")
        return float(np.abs(np.vdot(self._vec, other._vec)) ** 2)


#: Dense plans by circuit identity, valid while the circuit's structure key
#: is the object they were built against (as ``ProgramCache.plan_for``'s).
_PLANS: "weakref.WeakKeyDictionary[QuantumCircuit, tuple]" = weakref.WeakKeyDictionary()


def _dense_plan(circuit: QuantumCircuit) -> tuple[np.ndarray, tuple, tuple]:
    """``(prefix, pairs, steps)``: the read-only state after the leading
    gates with no free parameter; the distinct ``(build, angle)`` pairs of
    the later gates (a fixed gate: ``build=None`` and its matrix as
    ``angle``); one ``(gather, scatter, rows, pair index)`` per later gate.

    Pairs are told apart by the angle's *identity*, never its value: ring
    QAOA's cost gates share one angle object and build one matrix per run,
    while ``0.0`` and ``-0.0`` are equal floats that build different bytes.
    """
    key = circuit.structure_key
    entry = _PLANS.get(circuit)
    if entry is not None and entry[0] is key:
        return entry[1:]
    n = circuit.num_qubits
    prefix = Statevector(n)._vec
    pairs: list[tuple[object, object]] = []
    index: dict[tuple[object, int], int] = {}
    steps = []
    for inst in circuit.instructions:
        if not inst.is_unitary:
            continue
        if not steps and not inst.free_parameters:
            prefix = _apply(prefix, gate_matrix(inst.name, inst.params), n, inst.qubits)
            continue
        build = _ROTATIONS.get(inst.name)
        angle = inst.params[0] if build else gate_matrix(inst.name)
        position = index.setdefault((build, id(angle)), len(pairs))
        if position == len(pairs):
            pairs.append((build, angle))
        steps.append((*_gather_scatter(n, inst.qubits), position))
    prefix.setflags(write=False)
    entry = _PLANS[circuit] = (key, prefix, tuple(pairs), tuple(steps))
    return entry[1:]


def simulate_statevector(
    circuit: QuantumCircuit,
    parameter_values: Mapping[Parameter, float] | None = None,
) -> Statevector:
    """Run a circuit on the ideal statevector simulator.

    Measurement directives are ignored (the full final state is returned);
    use :mod:`repro.simulator.sampler` to draw shots from it.  The circuit's
    dense plan (:func:`_dense_plan`) is compiled once; each run resolves
    every distinct ``(gate, angle object)`` pair of the plan against
    ``parameter_values`` and builds its matrix once (no bound circuit, no
    per-angle cache across runs), then applies the gates by gather/scatter:
    the float operations of applying the gates one by one.  The state owns
    its data.

    Args:
        circuit: the circuit to simulate.
        parameter_values: bindings for any free parameters.

    Raises:
        ValueError: if free parameters remain unbound.
    """
    values = parameter_values or {}
    missing = circuit.parameters - values.keys()
    if missing:
        raise ValueError(f"unbound parameters remain: {', '.join(p.name for p in missing)}")
    vec, pairs, steps = _dense_plan(circuit)
    matrices = [
        angle if build is None else build(float(bind_value(angle, values)))
        for build, angle in pairs
    ]
    for gather, scatter, rows, index in steps:
        vec = (matrices[index] @ vec[gather].reshape(rows, -1)).reshape(-1)[scatter]
    state = Statevector(circuit.num_qubits)
    state._vec = vec if steps else vec.copy()
    return state
