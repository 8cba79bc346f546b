"""MaxCut Hamiltonians and classical cut utilities (paper Eq. 5-7).

The MaxCut objective over a weighted graph is mapped to the diagonal spin
Hamiltonian ``H = - sum_(j,k) w_jk / 2 * (1 - Z_j Z_k)`` (a minimization), so
the expectation of ``H`` equals minus the expected cut weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .pauli import PauliString, PauliSum

__all__ = [
    "RING_GRAPH_EDGES",
    "MaxCutGraph",
    "maxcut_hamiltonian",
    "ring_maxcut_hamiltonian",
    "cut_value",
    "best_cut",
    "maxcut_graph",
]

#: The paper's 4-node unweighted ring graph, 0-indexed.
RING_GRAPH_EDGES: tuple[tuple[int, int], ...] = ((0, 1), (1, 2), (2, 3), (0, 3))


@dataclass(frozen=True)
class MaxCutGraph:
    """A weighted undirected MaxCut instance over nodes ``0 .. num_nodes - 1``.

    ``edges`` holds one ``(a, b, weight)`` per node pair, with ``a < b``.
    """

    num_nodes: int
    edges: tuple[tuple[int, int, float], ...]


def maxcut_graph(
    num_nodes: int,
    edges: Iterable[tuple[int, int]],
    weights: Mapping[tuple[int, int], float] | None = None,
) -> MaxCutGraph:
    """Build a weighted undirected graph for a MaxCut instance.

    A pair listed twice (in either orientation) keeps its first position and
    its last weight.  Edges are ordered by their smaller endpoint, ties in
    listing order: the order networkx's ``Graph.edges`` used, which fixes the
    term order of :func:`maxcut_hamiltonian` and the summation order of
    :func:`cut_value`.
    """
    pair_weights: dict[tuple[int, int], float] = {}
    for a, b in edges:
        a, b = int(a), int(b)
        if a == b:
            raise ValueError("MaxCut graphs must not contain self-loops")
        if not (0 <= a < num_nodes and 0 <= b < num_nodes):
            raise ValueError(f"edge ({a}, {b}) has an endpoint outside [0, num_nodes={num_nodes})")
        weight = 1.0
        if weights is not None:
            weight = float(weights.get((a, b), weights.get((b, a), 1.0)))
        if weight <= 0:
            raise ValueError("edge weights must be positive")
        pair_weights[(min(a, b), max(a, b))] = weight
    ordered = sorted(pair_weights.items(), key=lambda item: item[0][0])
    return MaxCutGraph(num_nodes, tuple((a, b, weight) for (a, b), weight in ordered))


def maxcut_hamiltonian(graph: MaxCutGraph) -> PauliSum:
    """The diagonal MaxCut Hamiltonian ``-1/2 sum w_jk (1 - Z_j Z_k)``."""
    num_qubits = graph.num_nodes
    if num_qubits < 2:
        raise ValueError("MaxCut needs at least two nodes")
    terms: list[PauliString] = []
    identity = "I" * num_qubits
    for a, b, weight in graph.edges:
        label = "".join(
            "Z" if q in (a, b) else "I" for q in range(num_qubits)
        )
        terms.append(PauliString(identity, -0.5 * weight))
        terms.append(PauliString(label, 0.5 * weight))
    return PauliSum(terms).simplify()


def ring_maxcut_hamiltonian() -> PauliSum:
    """The paper's 4-node unweighted ring MaxCut Hamiltonian."""
    return maxcut_hamiltonian(maxcut_graph(4, RING_GRAPH_EDGES))


def cut_value(graph: MaxCutGraph, bitstring: str) -> float:
    """Cut weight of a partition encoded as a bitstring (node i -> bit i)."""
    if len(bitstring) != graph.num_nodes:
        raise ValueError("bitstring length does not match the number of nodes")
    total = 0.0
    for a, b, weight in graph.edges:
        if bitstring[a] != bitstring[b]:
            total += weight
    return total


def best_cut(graph: MaxCutGraph) -> tuple[str, float]:
    """Brute-force optimal cut (feasible for the small graphs used here)."""
    n = graph.num_nodes
    if n > 20:
        raise ValueError("brute-force best_cut limited to 20 nodes")
    best_bits = "0" * n
    best_value = 0.0
    for index in range(1 << n):
        bits = format(index, f"0{n}b")
        value = cut_value(graph, bits)
        if value > best_value:
            best_value = value
            best_bits = bits
    return best_bits, best_value
