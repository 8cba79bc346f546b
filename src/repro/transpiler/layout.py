"""Initial layout selection: mapping logical qubits onto physical qubits.

The layout pass chooses which physical qubits host the circuit: it picks a
well-connected region of the device and places the most interaction-heavy
logical qubits on the best-connected physical qubits, which minimizes the
SWAP count the router has to pay.
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping

from ..circuit.circuit import QuantumCircuit
from ..circuit.gates import is_two_qubit
from ..devices.topology import Topology

__all__ = ["Layout", "select_layout"]

class Layout:
    """A bijective map from logical qubits to physical qubits."""

    def __init__(self, logical_to_physical: Mapping[int, int], num_physical: int) -> None:
        mapping = {int(k): int(v) for k, v in logical_to_physical.items()}
        if len(set(mapping.values())) != len(mapping):
            raise ValueError("layout maps two logical qubits to one physical qubit")
        for phys in mapping.values():
            if not 0 <= phys < num_physical:
                raise ValueError(f"physical qubit {phys} out of range")
        self._map = mapping
        self.num_physical = int(num_physical)

    def physical(self, logical: int) -> int:
        """Physical qubit hosting ``logical``."""
        return self._map[logical]

    def logical(self, physical: int) -> int | None:
        """Logical qubit hosted on ``physical`` (None when idle)."""
        for log, phys in self._map.items():
            if phys == physical:
                return log
        return None

    def as_dict(self) -> dict[int, int]:
        return dict(self._map)

    def swapped(self, phys_a: int, phys_b: int) -> "Layout":
        """Layout after physically swapping the contents of two qubits."""
        mapping = dict(self._map)
        log_a = self.logical(phys_a)
        log_b = self.logical(phys_b)
        if log_a is not None:
            mapping[log_a] = phys_b
        if log_b is not None:
            mapping[log_b] = phys_a
        return Layout(mapping, self.num_physical)

    def __len__(self) -> int:
        return len(self._map)

    def __repr__(self) -> str:
        items = ", ".join(f"{k}->{v}" for k, v in sorted(self._map.items()))
        return f"Layout({items})"


def interaction_counts(circuit: QuantumCircuit) -> Counter:
    """How often each logical qubit participates in a two-qubit gate."""
    counts: Counter = Counter()
    for inst in circuit:
        if inst.is_unitary and is_two_qubit(inst.name):
            for q in inst.qubits:
                counts[q] += 1
    return counts


def select_layout(circuit: QuantumCircuit, topology: Topology) -> Layout:
    """Choose an initial logical-to-physical mapping.

    Raises:
        ValueError: when the device has fewer qubits than the circuit (the
            paper's master node filters such devices out of the ensemble).
    """
    if circuit.num_qubits > topology.num_qubits:
        raise ValueError(
            f"circuit needs {circuit.num_qubits} qubits but device "
            f"{topology.name!r} has only {topology.num_qubits}"
        )

    # Grow a connected physical region from the best-connected qubit,
    # then assign busy logical qubits to well-connected physical slots.
    start = max(range(topology.num_qubits), key=lambda q: (topology.degree(q), -q))
    region = [start]
    frontier = set(topology.neighbors(start))
    while len(region) < circuit.num_qubits:
        if not frontier:
            remaining = [q for q in range(topology.num_qubits) if q not in region]
            region.append(remaining[0])
            frontier |= set(topology.neighbors(remaining[0])) - set(region)
            continue
        best = max(
            frontier,
            key=lambda q: (
                sum(1 for nb in topology.neighbors(q) if nb in region),
                topology.degree(q),
                -q,
            ),
        )
        frontier.discard(best)
        region.append(best)
        frontier |= set(topology.neighbors(best)) - set(region)

    busy_logical = [
        q for q, _ in sorted(
            interaction_counts(circuit).items(), key=lambda kv: (-kv[1], kv[0])
        )
    ]
    for q in range(circuit.num_qubits):
        if q not in busy_logical:
            busy_logical.append(q)

    region_by_connectivity = sorted(
        region,
        key=lambda q: (
            -sum(1 for nb in topology.neighbors(q) if nb in region),
            q,
        ),
    )
    mapping = {
        logical: physical
        for logical, physical in zip(busy_logical, region_by_connectivity)
    }
    return Layout(mapping, topology.num_qubits)
