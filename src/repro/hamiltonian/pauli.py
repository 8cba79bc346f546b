"""Pauli-string algebra for observables.

VQE/QAOA objectives are Hamiltonians expressed as weighted sums of Pauli
strings (paper Eq. 1/3/7).  This module provides the two value types the rest
of the library consumes:

* :class:`PauliString` — a coefficient times a tensor product of I/X/Y/Z,
  written as a label such as ``"XXIZ"`` whose character *i* acts on qubit *i*;
* :class:`PauliSum` — a linear combination of Pauli strings with helpers for
  simplification, matrix construction (exact diagonalization of small
  problems) and expectation values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

__all__ = ["PauliString", "PauliSum"]

_VALID = frozenset("IXYZ")

_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

#: Single-qubit Pauli multiplication table: (left, right) -> (phase, result).
_PRODUCT: dict[tuple[str, str], tuple[complex, str]] = {
    ("I", "I"): (1, "I"), ("I", "X"): (1, "X"), ("I", "Y"): (1, "Y"), ("I", "Z"): (1, "Z"),
    ("X", "I"): (1, "X"), ("X", "X"): (1, "I"), ("X", "Y"): (1j, "Z"), ("X", "Z"): (-1j, "Y"),
    ("Y", "I"): (1, "Y"), ("Y", "X"): (-1j, "Z"), ("Y", "Y"): (1, "I"), ("Y", "Z"): (1j, "X"),
    ("Z", "I"): (1, "Z"), ("Z", "X"): (1j, "Y"), ("Z", "Y"): (-1j, "X"), ("Z", "Z"): (1, "I"),
}


@dataclass(frozen=True)
class PauliString:
    """A weighted Pauli tensor product, e.g. ``0.5 * XXIZ``."""

    label: str
    coefficient: float = 1.0
    #: Qubits on which the string acts non-trivially (derived from the label
    #: once: the counts decoders read it per outcome per term).
    support: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        label = self.label.upper()
        if not label:
            raise ValueError("empty Pauli label")
        if set(label) - _VALID:
            raise ValueError(f"invalid Pauli label {self.label!r}")
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "coefficient", float(self.coefficient))
        object.__setattr__(
            self, "support", tuple(i for i, c in enumerate(label) if c != "I")
        )

    # ------------------------------------------------------------------
    @property
    def num_qubits(self) -> int:
        return len(self.label)

    @property
    def is_identity(self) -> bool:
        return all(c == "I" for c in self.label)

    @property
    def is_diagonal(self) -> bool:
        """True when the string contains only I and Z (measurable in Z basis)."""
        return set(self.label) <= {"I", "Z"}

    # ------------------------------------------------------------------
    def to_matrix(self) -> np.ndarray:
        """Dense matrix representation (coefficient included)."""
        mat = np.array([[1.0]], dtype=complex)
        for char in self.label:
            mat = np.kron(mat, _MATRICES[char])
        return self.coefficient * mat

    def expectation_from_probabilities(self, probabilities: np.ndarray) -> float:
        """Expectation of a *diagonal* string from a Z-basis distribution.

        Raises:
            ValueError: when the string contains X or Y (use a basis-rotated
            measurement and :meth:`eigenvalue_of_bitstring` instead).
        """
        if not self.is_diagonal:
            raise ValueError(
                f"{self.label} is not diagonal; rotate to the Z basis first"
            )
        dim = 1 << self.num_qubits
        probs = np.asarray(probabilities, dtype=float)
        if probs.size != dim:
            raise ValueError("distribution size does not match the Pauli width")
        total = 0.0
        for index in range(dim):
            total += probs[index] * self._diagonal_eigenvalue(index)
        return self.coefficient * total

    def eigenvalue_of_bitstring(self, bitstring: str) -> int:
        """Eigenvalue (+1/-1) of the *measured-basis* string for a bitstring.

        The bitstring is assumed to have been measured after rotating every
        non-identity position into the Z basis, so the eigenvalue is simply
        the parity of the measured bits on the string's support.
        """
        if len(bitstring) != self.num_qubits:
            raise ValueError("bitstring width does not match the Pauli width")
        parity = 0
        for qubit in self.support:
            parity ^= int(bitstring[qubit])
        return -1 if parity else 1

    def _diagonal_eigenvalue(self, index: int) -> int:
        parity = 0
        for qubit in self.support:
            bit = (index >> (self.num_qubits - 1 - qubit)) & 1
            parity ^= bit
        return -1 if parity else 1

    # ------------------------------------------------------------------
    def commutes_qubitwise(self, other: "PauliString") -> bool:
        """True when every qubit position commutes (shared measurement basis)."""
        if other.num_qubits != self.num_qubits:
            raise ValueError("cannot compare Pauli strings of different widths")
        for a, b in zip(self.label, other.label):
            if a != "I" and b != "I" and a != b:
                return False
        return True

    def __mul__(self, other: "PauliString | float") -> "PauliString":
        if isinstance(other, (int, float)):
            return PauliString(self.label, self.coefficient * float(other))
        if other.num_qubits != self.num_qubits:
            raise ValueError("cannot multiply Pauli strings of different widths")
        phase: complex = 1.0
        chars = []
        for a, b in zip(self.label, other.label):
            p, c = _PRODUCT[(a, b)]
            phase *= p
            chars.append(c)
        coeff = self.coefficient * other.coefficient * phase
        if abs(coeff.imag) > 1e-12:
            raise ValueError("product has an imaginary coefficient; not supported here")
        return PauliString("".join(chars), float(coeff.real))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"{self.coefficient:+g}*{self.label}"


class PauliSum:
    """A real-weighted linear combination of Pauli strings."""

    def __init__(self, terms: Iterable[PauliString]) -> None:
        terms = list(terms)
        if not terms:
            raise ValueError("a PauliSum needs at least one term")
        widths = {t.num_qubits for t in terms}
        if len(widths) != 1:
            raise ValueError("all terms must act on the same number of qubits")
        self._terms = tuple(terms)
        self._matrix: np.ndarray | None = None

    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, mapping: Mapping[str, float]) -> "PauliSum":
        """Build from ``{label: coefficient}``."""
        return cls(PauliString(label, coeff) for label, coeff in mapping.items())

    @property
    def terms(self) -> tuple[PauliString, ...]:
        return self._terms

    @property
    def num_qubits(self) -> int:
        return self._terms[0].num_qubits

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[PauliString]:
        return iter(self._terms)

    def __add__(self, other: "PauliSum") -> "PauliSum":
        if other.num_qubits != self.num_qubits:
            raise ValueError("cannot add PauliSums of different widths")
        return PauliSum(self._terms + other._terms).simplify()

    def __mul__(self, scalar: float) -> "PauliSum":
        return PauliSum(t * float(scalar) for t in self._terms)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        body = " ".join(repr(t) for t in self._terms[:6])
        suffix = " ..." if len(self._terms) > 6 else ""
        return f"PauliSum({body}{suffix})"

    # ------------------------------------------------------------------
    def simplify(self, atol: float = 1e-12) -> "PauliSum":
        """Merge duplicate labels and drop negligible terms."""
        merged: dict[str, float] = {}
        for term in self._terms:
            merged[term.label] = merged.get(term.label, 0.0) + term.coefficient
        kept = [
            PauliString(label, coeff)
            for label, coeff in merged.items()
            if abs(coeff) > atol
        ]
        if not kept:
            kept = [PauliString("I" * self.num_qubits, 0.0)]
        return PauliSum(kept)

    def to_matrix(self) -> np.ndarray:
        """Dense Hamiltonian matrix (exact diagonalization of small systems).

        Built once (the terms are immutable) and shared read-only — copy
        before mutating.
        """
        if self._matrix is None:
            dim = 1 << self.num_qubits
            total = np.zeros((dim, dim), dtype=complex)
            for term in self._terms:
                total += term.to_matrix()
            total.setflags(write=False)
            self._matrix = total
        return self._matrix

    def ground_state_energy(self) -> float:
        """Exact minimum eigenvalue (reference "ground energy" of the paper)."""
        eigenvalues = np.linalg.eigvalsh(self.to_matrix())
        return float(eigenvalues[0])

    def expectation_from_statevector(self, amplitudes: np.ndarray) -> float:
        """Exact expectation value ``<psi|H|psi>`` for an amplitude vector."""
        vec = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if vec.size != (1 << self.num_qubits):
            raise ValueError("statevector size does not match the Hamiltonian width")
        return float(np.vdot(vec, self.to_matrix() @ vec).real)

    @property
    def is_diagonal(self) -> bool:
        """True when every term is I/Z only (one measurement basis suffices)."""
        return all(term.is_diagonal for term in self._terms)
