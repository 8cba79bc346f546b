"""The :class:`QuantumCircuit` intermediate representation.

A circuit is an ordered list of :class:`~repro.circuit.gates.Instruction`
records over ``num_qubits`` qubits.  It supports the operations the rest of
the library needs:

* building ansatze gate by gate (``circuit.ry(theta, 0)`` style helpers),
* binding symbolic parameters to floats (parameter-shift evaluations),
* composition and qubit remapping (transpiler passes),
* structural metrics — gate counts, depth, critical depth — which feed the
  EQC ``PCorrect`` analytic model (paper Eq. 2).
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, Mapping, Sequence

from .gates import GATE_SPECS, Instruction, is_two_qubit
from .parameters import Parameter, ParameterValue

__all__ = ["QuantumCircuit"]


class QuantumCircuit:
    """An ordered gate list over a fixed number of qubits.

    Example:
        >>> qc = QuantumCircuit(2)
        >>> qc.h(0)
        >>> qc.cx(0, 1)
        >>> qc.measure_all()
        >>> qc.depth()
        3
    """

    def __init__(self, num_qubits: int, name: str = "circuit") -> None:
        if num_qubits < 1:
            raise ValueError("a circuit needs at least one qubit")
        self.num_qubits = int(num_qubits)
        self.name = name
        self._instructions: list[Instruction] = []
        # Derived views are cached (and invalidated on mutation): hot paths —
        # the batch engine, the program compiler, structure-keyed caches —
        # read `instructions` and `structure_key` far more often than circuits
        # are built.
        self._instructions_cache: tuple[Instruction, ...] | None = None
        self._structure_key_cache: tuple | None = None
        self._parameters_cache: frozenset | None = None
        self._measured_qubits_cache: tuple[int, ...] | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def append(self, instruction: Instruction) -> "QuantumCircuit":
        """Append a pre-built instruction, validating qubit indices."""
        for q in instruction.qubits:
            if not 0 <= q < self.num_qubits:
                raise ValueError(
                    f"qubit {q} out of range for a {self.num_qubits}-qubit circuit"
                )
        self._instructions.append(instruction)
        self._invalidate_caches()
        return self

    def _invalidate_caches(self) -> None:
        self._instructions_cache = None
        self._structure_key_cache = None
        self._parameters_cache = None
        self._measured_qubits_cache = None

    def add_gate(
        self,
        name: str,
        qubits: Sequence[int],
        params: Sequence[ParameterValue] = (),
    ) -> "QuantumCircuit":
        """Append a gate by name."""
        return self.append(Instruction(name, tuple(int(q) for q in qubits), tuple(params)))

    # single-qubit helpers ------------------------------------------------
    def id(self, qubit: int) -> "QuantumCircuit":
        return self.add_gate("id", [qubit])

    def x(self, qubit: int) -> "QuantumCircuit":
        return self.add_gate("x", [qubit])

    def y(self, qubit: int) -> "QuantumCircuit":
        return self.add_gate("y", [qubit])

    def z(self, qubit: int) -> "QuantumCircuit":
        return self.add_gate("z", [qubit])

    def h(self, qubit: int) -> "QuantumCircuit":
        return self.add_gate("h", [qubit])

    def s(self, qubit: int) -> "QuantumCircuit":
        return self.add_gate("s", [qubit])

    def sdg(self, qubit: int) -> "QuantumCircuit":
        return self.add_gate("sdg", [qubit])

    def t(self, qubit: int) -> "QuantumCircuit":
        return self.add_gate("t", [qubit])

    def sx(self, qubit: int) -> "QuantumCircuit":
        return self.add_gate("sx", [qubit])

    def rx(self, theta: ParameterValue, qubit: int) -> "QuantumCircuit":
        return self.add_gate("rx", [qubit], [theta])

    def ry(self, theta: ParameterValue, qubit: int) -> "QuantumCircuit":
        return self.add_gate("ry", [qubit], [theta])

    def rz(self, theta: ParameterValue, qubit: int) -> "QuantumCircuit":
        return self.add_gate("rz", [qubit], [theta])

    # two-qubit helpers ---------------------------------------------------
    def cx(self, control: int, target: int) -> "QuantumCircuit":
        return self.add_gate("cx", [control, target])

    def cz(self, a: int, b: int) -> "QuantumCircuit":
        return self.add_gate("cz", [a, b])

    def cp(self, theta: ParameterValue, control: int, target: int) -> "QuantumCircuit":
        return self.add_gate("cp", [control, target], [theta])

    def swap(self, a: int, b: int) -> "QuantumCircuit":
        return self.add_gate("swap", [a, b])

    def rzz(self, theta: ParameterValue, a: int, b: int) -> "QuantumCircuit":
        return self.add_gate("rzz", [a, b], [theta])

    # directives ----------------------------------------------------------
    def measure(self, qubit: int) -> "QuantumCircuit":
        return self.add_gate("measure", [qubit])

    def measure_all(self) -> "QuantumCircuit":
        for q in range(self.num_qubits):
            self.measure(q)
        return self

    def barrier(self) -> "QuantumCircuit":
        return self.append(Instruction("barrier", ()))

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def instructions(self) -> tuple[Instruction, ...]:
        """The instruction sequence (read-only view, cached until mutation)."""
        if self._instructions_cache is None:
            self._instructions_cache = tuple(self._instructions)
        return self._instructions_cache

    @property
    def structure_key(self) -> tuple:
        """A hashable key identifying the circuit's gate *structure*.

        Two circuits share a key exactly when they apply the same gate names
        to the same qubits in the same order (parameter values excluded) —
        the condition for sharing one compiled gate program or one stacked
        batch simulation.  Cached until the circuit is mutated.
        """
        if self._structure_key_cache is None:
            self._structure_key_cache = (
                self.num_qubits,
                tuple((inst.name, inst.qubits) for inst in self._instructions),
            )
        return self._structure_key_cache

    def __len__(self) -> int:
        return len(self._instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._instructions)

    @property
    def parameters(self) -> frozenset[Parameter]:
        """All free parameters appearing in the circuit (cached view)."""
        if self._parameters_cache is None:
            found: set[Parameter] = set()
            for inst in self._instructions:
                found |= inst.free_parameters
            self._parameters_cache = frozenset(found)
        return self._parameters_cache

    @property
    def is_bound(self) -> bool:
        """True when no symbolic parameters remain."""
        return not self.parameters

    @property
    def num_measurements(self) -> int:
        """Number of measurement directives (``M`` in paper Eq. 2)."""
        return sum(1 for inst in self._instructions if inst.is_measurement)

    @property
    def measured_qubits(self) -> tuple[int, ...]:
        """Qubit indices that carry a measurement, in insertion order (cached)."""
        if self._measured_qubits_cache is None:
            seen: list[int] = []
            for inst in self._instructions:
                if inst.is_measurement and inst.qubits[0] not in seen:
                    seen.append(inst.qubits[0])
            self._measured_qubits_cache = tuple(seen)
        return self._measured_qubits_cache

    def count_ops(self) -> Counter:
        """Histogram of gate names."""
        return Counter(inst.name for inst in self._instructions)

    @property
    def num_single_qubit_gates(self) -> int:
        """Count of unitary one-qubit gates (``G1`` in paper Eq. 2)."""
        return sum(
            1
            for inst in self._instructions
            if inst.is_unitary and GATE_SPECS[inst.name].num_qubits == 1
        )

    @property
    def num_two_qubit_gates(self) -> int:
        """Count of unitary two-qubit gates (``G2`` in paper Eq. 2).

        SWAPs that survive to this representation count as three CNOTs, the
        cost they incur on hardware (Section II-A of the paper).
        """
        total = 0
        for inst in self._instructions:
            if not inst.is_unitary or not is_two_qubit(inst.name):
                continue
            total += 3 if inst.name == "swap" else 1
        return total

    def depth(self) -> int:
        """Circuit depth: longest chain of dependent instructions.

        Measurements count as a layer on their qubit; barriers synchronize
        all qubits without adding depth.
        """
        level = [0] * self.num_qubits
        for inst in self._instructions:
            if inst.is_barrier:
                sync = max(level) if level else 0
                level = [sync] * self.num_qubits
                continue
            start = max(level[q] for q in inst.qubits)
            for q in inst.qubits:
                level[q] = start + 1
        return max(level) if level else 0

    def critical_depth(self) -> int:
        """Critical depth: longest chain counting only two-qubit gates.

        This is the ``CD`` term of the paper's ``PCorrect`` model (Eq. 2) —
        two-qubit gates dominate both error and duration, so the critical
        path is measured in units of entangling layers.
        """
        level = [0] * self.num_qubits
        for inst in self._instructions:
            if inst.is_barrier:
                sync = max(level) if level else 0
                level = [sync] * self.num_qubits
                continue
            if not inst.is_unitary:
                continue
            weight = 1 if is_two_qubit(inst.name) else 0
            start = max(level[q] for q in inst.qubits)
            for q in inst.qubits:
                level[q] = start + weight
        return max(level) if level else 0

    # ------------------------------------------------------------------
    # transformation
    # ------------------------------------------------------------------
    def copy(self, name: str | None = None) -> "QuantumCircuit":
        """Shallow copy (instructions are immutable, so this is safe)."""
        other = QuantumCircuit(self.num_qubits, name or self.name)
        other._instructions = list(self._instructions)
        return other

    def bind_parameters(self, values: Mapping[Parameter, float]) -> "QuantumCircuit":
        """Return a copy with symbolic parameters replaced by floats.

        Raises:
            KeyError: if any free parameter is missing from ``values``.
        """
        bound = self.copy()
        bound._instructions = [inst.bind(values) for inst in self._instructions]
        bound._invalidate_caches()
        return bound

    def assign_by_order(self, values: Sequence[float]) -> "QuantumCircuit":
        """Bind parameters by their first-appearance order in the circuit.

        Convenience for optimizers that track a flat parameter vector.
        """
        ordered = self.ordered_parameters()
        if len(values) != len(ordered):
            raise ValueError(
                f"expected {len(ordered)} values, got {len(values)}"
            )
        return self.bind_parameters(dict(zip(ordered, values)))

    def ordered_parameters(self) -> list[Parameter]:
        """Free parameters in the order they first appear."""
        seen: list[Parameter] = []
        for inst in self._instructions:
            for p in inst.free_parameters:
                if p not in seen:
                    seen.append(p)
        return seen

    def compose(self, other: "QuantumCircuit") -> "QuantumCircuit":
        """Return a new circuit running ``self`` then ``other``."""
        if other.num_qubits > self.num_qubits:
            raise ValueError("cannot compose a wider circuit onto a narrower one")
        combined = self.copy()
        combined._instructions.extend(other._instructions)
        combined._invalidate_caches()
        return combined

    def without_measurements(self) -> "QuantumCircuit":
        """Return a copy with measurement directives removed."""
        out = QuantumCircuit(self.num_qubits, self.name)
        out._instructions = [i for i in self._instructions if not i.is_measurement]
        out._invalidate_caches()
        return out

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"QuantumCircuit(name={self.name!r}, qubits={self.num_qubits}, "
            f"gates={len(self._instructions)}, params={len(self.parameters)})"
        )

    def draw(self) -> str:
        """A plain-text, one-instruction-per-line rendering (for debugging)."""
        lines = [f"{self.name}: {self.num_qubits} qubits"]
        lines.extend(f"  {inst!r}" for inst in self._instructions)
        return "\n".join(lines)
