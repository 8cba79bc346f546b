"""Grouping Pauli terms into simultaneously-measurable sets.

Estimating ``<H>`` on hardware requires sampling each Pauli term in its own
measurement basis.  Terms that commute *qubit-wise* (on every qubit they
either agree or at least one is the identity) can share a single basis-rotated
circuit, which is how the reproduction keeps the per-evaluation circuit count
at three for the Heisenberg Hamiltonian (an X-basis, a Y-basis and a Z-basis
group) and at one for the diagonal MaxCut Hamiltonian.

This mirrors the paper's Section III-A observation that a decomposed
Hamiltonian is a linear sum of Pauli strings which can be evaluated (and
parallelized) independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..circuit.circuit import QuantumCircuit
from ..reduction import ordered_row_sums
from .pauli import PauliString, PauliSum

__all__ = ["MeasurementGroup", "group_qubitwise_commuting", "measurement_basis_circuit"]

#: Widest register whose ``2**n x terms`` signed-coefficient table is built;
#: wider groups decode through the per-outcome loop.
_MAX_TABLE_QUBITS = 16


@dataclass(frozen=True)
class MeasurementGroup:
    """A set of qubit-wise commuting terms and their shared measurement basis.

    Attributes:
        terms: the Pauli strings in the group.
        basis: one character per qubit, ``I`` where every term is trivial,
            otherwise the shared Pauli axis measured on that qubit.
    """

    terms: tuple[PauliString, ...]
    basis: str

    @property
    def num_qubits(self) -> int:
        return len(self.basis)

    @cached_property
    def sign_matrix(self) -> np.ndarray:
        """The ``(terms, 2**n)`` eigenvalue matrix of the group (read-only).

        Entry ``(t, i)`` is the ±1 eigenvalue of the ``t``-th term (after
        its basis rotation) on basis state ``i`` — the parity of the
        measured bits on the term's support, qubit 0 most significant.
        """
        n = self.num_qubits
        index = np.arange(1 << n)
        signs = np.empty((len(self.terms), 1 << n), dtype=float)
        for row, term in enumerate(self.terms):
            parity = np.zeros(index.shape, dtype=np.intp)
            for qubit in term.support:
                parity ^= (index >> (n - 1 - qubit)) & 1
            signs[row] = 1.0 - 2.0 * parity
        signs.setflags(write=False)
        return signs

    @cached_property
    def _signed_coefficients(self) -> np.ndarray:
        """``(2**n, terms)`` table: row ``i`` holds ``coefficient * eigenvalue``
        of every term on outcome ``i``, in term order."""
        coefficients = np.array([term.coefficient for term in self.terms])
        return np.ascontiguousarray((self.sign_matrix * coefficients[:, None]).T)

    def expectation_from_counts(self, counts) -> float:
        """Estimate the group's contribution to ``<H>`` from measured counts.

        ``counts`` is a mapping from bitstrings (measured after the basis
        rotation) to frequencies.  A sampler-built
        :class:`~repro.simulator.result.Counts` is the one-row case of
        :func:`_expectations_from_draws`; plain mappings and registers too
        wide to tabulate take the per-outcome loop, to the same bits.
        """
        draws = _tabled_draws([counts], self.num_qubits)
        if draws is None:
            return self._expectation_from_mapping(counts)
        return float(_expectations_from_draws(draws, self._signed_coefficients[None])[0])

    def _expectation_from_mapping(self, counts) -> float:
        total_shots = sum(counts.values())
        if total_shots == 0:
            return 0.0
        value = 0.0
        for bitstring, count in counts.items():
            weight = count / total_shots
            for term in self.terms:
                value += weight * term.coefficient * term.eigenvalue_of_bitstring(bitstring)
        return value


def _tabled_draws(histograms, num_qubits: int) -> np.ndarray | None:
    """The draw rows behind ``histograms`` if consecutive rows of one draw matrix
    ``2**num_qubits`` wide (``num_qubits <= _MAX_TABLE_QUBITS``), else None."""
    first = histograms[0] if len(histograms) and num_qubits <= _MAX_TABLE_QUBITS else None
    draws = getattr(first, "_draws", None)
    if draws is None or draws.shape[1] != 1 << num_qubits:
        return None
    for offset, histogram in enumerate(histograms, first._row):
        if getattr(histogram, "_draws", None) is not draws or histogram._row != offset:
            return None
    return draws[first._row : first._row + len(histograms)]


def _expectations_from_draws(draws: np.ndarray, tables: np.ndarray) -> np.ndarray:
    """Decode row ``r`` of a ``(rows, 2**n)`` draw block against its zero-padded
    ``(2**n, terms)`` signed-coefficient table ``tables[r % len(tables)]`` (0.0
    if shotless): the stack is broadcast over ``rows // len(tables)`` points.

    Each row sums ``weight * (coefficient * ±1)`` from ``+0.0`` in the per-
    outcome loop's outcome-major, term-inner order, bit-equal to the loop: the
    products equal its ``(weight * coefficient) * ±1``, and a zero-count
    outcome or a padded term adds ``±0.0``.  A running sum that starts at
    ``+0.0`` never becomes ``-0.0`` under round-to-nearest, and ``±0.0``
    leaves any other value unchanged, so every partial sum keeps its bits:
    the one float-reduction order (:func:`~repro.reduction.ordered_row_sums`)."""
    weights = draws / np.maximum(draws.sum(axis=1), 1)[:, None]
    points = weights.reshape(-1, len(tables), weights.shape[1], 1)
    return ordered_row_sums((points * tables).reshape(len(draws), -1))


def group_qubitwise_commuting(hamiltonian: PauliSum) -> list[MeasurementGroup]:
    """Greedy qubit-wise commuting grouping.

    Terms are placed into the first existing group whose basis is compatible;
    the group basis is widened as terms join.  The greedy order is the term
    order of the Hamiltonian, which for the Hamiltonians in this library
    (Heisenberg, MaxCut) produces the optimal grouping.
    """
    groups: list[list[PauliString]] = []
    bases: list[list[str]] = []

    for term in hamiltonian:
        placed = False
        for index, basis in enumerate(bases):
            if _compatible(term, basis):
                groups[index].append(term)
                _merge_basis(term, basis)
                placed = True
                break
        if not placed:
            basis = ["I"] * hamiltonian.num_qubits
            _merge_basis(term, basis)
            groups.append([term])
            bases.append(basis)

    return [
        MeasurementGroup(terms=tuple(terms), basis="".join(basis))
        for terms, basis in zip(groups, bases)
    ]


def measurement_basis_circuit(basis: str) -> QuantumCircuit:
    """The basis-rotation + measurement tail for one measurement group.

    ``X`` positions get a Hadamard, ``Y`` positions an S-dagger followed by a
    Hadamard, ``Z``/``I`` positions nothing; every qubit is then measured.
    Compose this after the (measurement-free) ansatz.
    """
    num_qubits = len(basis)
    tail = QuantumCircuit(num_qubits, name=f"measure_{basis}")
    for qubit, axis in enumerate(basis.upper()):
        if axis == "X":
            tail.h(qubit)
        elif axis == "Y":
            tail.sdg(qubit)
            tail.h(qubit)
        elif axis not in ("Z", "I"):
            raise ValueError(f"invalid basis character {axis!r}")
    tail.measure_all()
    return tail


def _compatible(term: PauliString, basis: list[str]) -> bool:
    for qubit, char in enumerate(term.label):
        if char == "I":
            continue
        if basis[qubit] != "I" and basis[qubit] != char:
            return False
    return True


def _merge_basis(term: PauliString, basis: list[str]) -> None:
    for qubit, char in enumerate(term.label):
        if char != "I":
            basis[qubit] = char
