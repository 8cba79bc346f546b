"""Gate definitions and unitary matrices.

The gate set covers everything the EQC paper needs:

* the IBMQ *basis gates* ``ID, RZ, SX, X, CNOT`` that transpiled circuits are
  expressed in,
* the *logical* gates used to author ansatze (``H, RX, RY, RZ, RZZ, CX, SWAP``),
* ``MEASURE`` markers.

Each instruction is an immutable :class:`Instruction` record naming the gate,
its qubits, and its (possibly symbolic) parameters.  Unitary matrices are
produced by :func:`gate_matrix` once parameters have been bound to floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .parameters import Parameter, ParameterValue, bind_value, free_parameters

__all__ = [
    "GateSpec",
    "Instruction",
    "GATE_SPECS",
    "BASIS_GATES",
    "gate_matrix",
    "is_two_qubit",
    "is_parameterized_gate",
]


@dataclass(frozen=True)
class GateSpec:
    """Static description of a gate type."""

    name: str
    num_qubits: int
    num_params: int
    #: True for gates native to IBMQ-style superconducting hardware.
    is_basis: bool = False
    #: True for measurement/barrier style directives with no unitary.
    is_directive: bool = False


GATE_SPECS: dict[str, GateSpec] = {
    "id": GateSpec("id", 1, 0, is_basis=True),
    "x": GateSpec("x", 1, 0, is_basis=True),
    "sx": GateSpec("sx", 1, 0, is_basis=True),
    "rz": GateSpec("rz", 1, 1, is_basis=True),
    "cx": GateSpec("cx", 2, 0, is_basis=True),
    "h": GateSpec("h", 1, 0),
    "y": GateSpec("y", 1, 0),
    "z": GateSpec("z", 1, 0),
    "s": GateSpec("s", 1, 0),
    "sdg": GateSpec("sdg", 1, 0),
    "t": GateSpec("t", 1, 0),
    "rx": GateSpec("rx", 1, 1),
    "ry": GateSpec("ry", 1, 1),
    "rzz": GateSpec("rzz", 2, 1),
    "swap": GateSpec("swap", 2, 0),
    "cz": GateSpec("cz", 2, 0),
    "cp": GateSpec("cp", 2, 1),
    "measure": GateSpec("measure", 1, 0, is_directive=True),
    "barrier": GateSpec("barrier", 0, 0, is_directive=True),
}

#: The IBMQ basis-gate alphabet used by the paper's devices (Section II-A).
BASIS_GATES: tuple[str, ...] = ("id", "rz", "sx", "x", "cx")


@dataclass(frozen=True)
class Instruction:
    """One gate application inside a circuit.

    Attributes:
        name: gate name, lowercase, one of :data:`GATE_SPECS`.
        qubits: target qubit indices (control first for ``cx``).
        params: gate angles; floats or symbolic parameters.
    """

    name: str
    qubits: tuple[int, ...]
    params: tuple[ParameterValue, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        spec = GATE_SPECS.get(self.name)
        if spec is None:
            raise ValueError(f"unknown gate {self.name!r}")
        if spec.name != "barrier" and len(self.qubits) != spec.num_qubits:
            raise ValueError(
                f"gate {self.name!r} expects {spec.num_qubits} qubits, "
                f"got {len(self.qubits)}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"gate {self.name!r} applied to duplicate qubits {self.qubits}")
        if len(self.params) != spec.num_params:
            raise ValueError(
                f"gate {self.name!r} expects {spec.num_params} parameters, "
                f"got {len(self.params)}"
            )

    @property
    def spec(self) -> GateSpec:
        """Static gate description."""
        return GATE_SPECS[self.name]

    @property
    def is_measurement(self) -> bool:
        return self.name == "measure"

    @property
    def is_barrier(self) -> bool:
        return self.name == "barrier"

    @property
    def is_unitary(self) -> bool:
        """True when the instruction has a unitary matrix representation."""
        return not self.spec.is_directive

    @property
    def free_parameters(self) -> frozenset[Parameter]:
        """Free (unbound) parameters used by this instruction."""
        return free_parameters(self.params)

    def bind(self, values: Mapping[Parameter, float]) -> "Instruction":
        """Return a copy with known symbolic parameters replaced by floats.

        Parameters missing from ``values`` are left symbolic (partial
        binding), so callers can layer bindings or detect leftovers.
        """
        if not self.free_parameters:
            return self
        bound = tuple(
            bind_value(p, values)
            if not hasattr(p, "parameters") or p.parameters <= values.keys()
            else p
            for p in self.params
        )
        return Instruction(self.name, self.qubits, bound)

    def __repr__(self) -> str:
        if self.params:
            args = ", ".join(str(p) for p in self.params)
            return f"{self.name}({args}) q{list(self.qubits)}"
        return f"{self.name} q{list(self.qubits)}"


def is_two_qubit(name: str) -> bool:
    """True when ``name`` is a two-qubit gate."""
    spec = GATE_SPECS.get(name)
    return spec is not None and spec.num_qubits == 2 and not spec.is_directive


def is_parameterized_gate(name: str) -> bool:
    """True when ``name`` takes at least one angle parameter."""
    spec = GATE_SPECS.get(name)
    return spec is not None and spec.num_params > 0


# ---------------------------------------------------------------------------
# Unitary matrices
# ---------------------------------------------------------------------------

_SQRT2_INV = 1.0 / math.sqrt(2.0)

_FIXED: dict[str, np.ndarray] = {
    "id": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "h": np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT2_INV,
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
    "t": np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex),
    "sx": 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex),
    # Qubit ordering convention: for cx, qubits = (control, target); the
    # matrix is written in the basis |control, target>.
    "cx": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
    "cz": np.diag([1, 1, 1, -1]).astype(complex),
    "swap": np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
}
for _matrix in _FIXED.values():
    _matrix.setflags(write=False)


def _rx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz(theta: float) -> np.ndarray:
    return np.array(
        [[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]], dtype=complex
    )


def _rzz(theta: float) -> np.ndarray:
    phase = np.exp(-0.5j * theta)
    conj = np.exp(0.5j * theta)
    return np.diag([phase, conj, conj, phase]).astype(complex)


def _cp(theta: float) -> np.ndarray:
    return np.diag([1.0, 1.0, 1.0, np.exp(1j * theta)]).astype(complex)


#: The one-angle gates: ``_ROTATIONS[name](theta)`` is the unitary at a
#: float angle, a fresh array every call.
_ROTATIONS = {"rx": _rx, "ry": _ry, "rz": _rz, "rzz": _rzz, "cp": _cp}


def gate_matrix(name: str, params: Sequence[float] = ()) -> np.ndarray:
    """Return the unitary matrix for a gate with bound (float) parameters.

    The returned array is **read-only**; copy it before mutating.  A fixed
    gate returns its one shared matrix; a rotation is built on every call
    (nothing is cached per angle).

    Args:
        name: gate name from :data:`GATE_SPECS`.
        params: bound angle values; length must match the gate's arity.

    Raises:
        ValueError: for measurement/barrier directives or unknown gates.
    """
    spec = GATE_SPECS.get(name)
    if spec is None:
        raise ValueError(f"unknown gate {name!r}")
    if spec.is_directive:
        raise ValueError(f"gate {name!r} has no unitary representation")
    if len(params) != spec.num_params:
        raise ValueError(
            f"gate {name!r} expects {spec.num_params} parameters, got {len(params)}"
        )
    matrix = _FIXED.get(name)
    if matrix is None:
        matrix = _ROTATIONS[name](float(params[0]))
        matrix.setflags(write=False)
    return matrix
