"""Device topologies (coupling maps).

The paper's devices span five topology families (Table I and Fig. 3): line,
T-shape, H-shape, fully-connected, and heavy-hex ("honeycomb") lattices.
Topology drives two things in EQC:

* the transpiler must route CNOTs through the coupling graph, inserting SWAPs
  whose cost shows up in the ``G2`` term of the ``PCorrect`` model;
* highly-connected devices (e.g. ``ibmq_x2``) suffer more cross-talk, which
  the device model applies as a latent error the estimator cannot see.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

__all__ = [
    "Topology",
    "line_topology",
    "t_shape_topology",
    "h_shape_topology",
    "fully_connected_topology",
    "heavy_hex_topology",
    "toronto_topology",
    "manhattan_topology",
]


@dataclass(frozen=True)
class Topology:
    """An undirected coupling map over ``num_qubits`` physical qubits.

    ``edges`` is normalized to unique ``(a, b)`` pairs with ``a < b``, sorted.
    Every graph query (neighbours, degree, connectivity, paths, distances)
    reads the cached :attr:`adjacency`.
    """

    name: str
    num_qubits: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.num_qubits < 1:
            raise ValueError("a topology needs at least one qubit")
        normalized = []
        seen = set()
        for a, b in self.edges:
            a, b = int(a), int(b)
            if a == b:
                raise ValueError(f"self-loop on qubit {a}")
            if not (0 <= a < self.num_qubits and 0 <= b < self.num_qubits):
                raise ValueError(f"edge ({a}, {b}) out of range")
            key = (min(a, b), max(a, b))
            if key in seen:
                continue
            seen.add(key)
            normalized.append(key)
        object.__setattr__(self, "edges", tuple(sorted(normalized)))

    # ------------------------------------------------------------------
    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Each qubit's neighbours in ascending order (cached).

        ``edges`` is sorted, so appending both ends of every edge in order
        leaves each list ascending.
        """
        adjacency: list[list[int]] = [[] for _ in range(self.num_qubits)]
        for a, b in self.edges:
            adjacency[a].append(b)
            adjacency[b].append(a)
        return tuple(tuple(neighbors) for neighbors in adjacency)

    @property
    def directed_couplings(self) -> tuple[tuple[int, int], ...]:
        """Both directions of every edge (calibration is per direction)."""
        out = []
        for a, b in self.edges:
            out.append((a, b))
            out.append((b, a))
        return tuple(out)

    def are_connected(self, a: int, b: int) -> bool:
        """True when qubits ``a`` and ``b`` share a physical coupling."""
        return 0 <= a < self.num_qubits and b in self.adjacency[a]

    def neighbors(self, qubit: int) -> tuple[int, ...]:
        return self.adjacency[self._qubit(qubit)]

    def degree(self, qubit: int) -> int:
        return len(self.adjacency[self._qubit(qubit)])

    @cached_property
    def average_degree(self) -> float:
        if self.num_qubits == 0:
            return 0.0
        return 2.0 * len(self.edges) / self.num_qubits

    @cached_property
    def is_connected(self) -> bool:
        return len(self._depths(0)) == self.num_qubits

    def shortest_path(self, a: int, b: int) -> list[int]:
        """Shortest physical path between two qubits (inclusive).

        A bidirectional BFS over :attr:`adjacency` that expands the smaller
        fringe (the forward one on a tie) and stops at the first qubit both
        sides have reached.  Among equally short paths it returns the one
        networkx's ``shortest_path`` returns, so routing inserts the same SWAPs.
        """
        if not (0 <= a < self.num_qubits and 0 <= b < self.num_qubits):
            raise ValueError(f"qubit pair ({a}, {b}) is not on {self.num_qubits}-qubit {self.name!r}")
        if a == b:
            return [a]
        pred: dict[int, int | None] = {a: None}
        succ: dict[int, int | None] = {b: None}
        forward, reverse, meet = [a], [b], None
        while forward and reverse and meet is None:
            if len(forward) <= len(reverse):
                forward, meet = self._expand(forward, pred, succ)
            else:
                reverse, meet = self._expand(reverse, succ, pred)
        if meet is None:
            raise ValueError(f"no path between qubits {a} and {b} on {self.name!r}")
        path, node = [], meet
        while node is not None:
            path.append(node)
            node = pred[node]
        path.reverse()
        node = succ[meet]
        while node is not None:
            path.append(node)
            node = succ[node]
        return path

    def distance(self, a: int, b: int) -> int:
        """Shortest-path distance between two qubits."""
        return len(self.shortest_path(a, b)) - 1

    @cached_property
    def distance_matrix(self) -> dict[tuple[int, int], int]:
        """All-pairs shortest-path distances (connected pairs only)."""
        return {
            (a, b): d for a in range(self.num_qubits) for b, d in self._depths(a).items()
        }

    def _qubit(self, qubit: int) -> int:
        if not 0 <= qubit < self.num_qubits:
            raise ValueError(f"qubit {qubit} is not on {self.num_qubits}-qubit {self.name!r}")
        return qubit

    def _expand(
        self, fringe: list[int], seen: dict[int, int | None], other: dict[int, int | None]
    ) -> tuple[list[int], int | None]:
        """Advance one BFS side a level; also return the first qubit ``other`` holds."""
        level = []
        for v in fringe:
            for w in self.adjacency[v]:
                if w not in seen:
                    seen[w] = v
                    level.append(w)
                if w in other:
                    return level, w
        return level, None

    def _depths(self, source: int) -> dict[int, int]:
        """BFS depth of every qubit reachable from ``source``, in visit order."""
        depths = {source: 0}
        frontier = [source]
        while frontier:
            level = []
            for v in frontier:
                for w in self.adjacency[v]:
                    if w not in depths:
                        depths[w] = depths[v] + 1
                        level.append(w)
            frontier = level
        return depths

    def subgraph_connectivity(self, qubits: Sequence[int]) -> float:
        """Fraction of pairs among ``qubits`` that are directly coupled."""
        qubits = list(qubits)
        if len(qubits) < 2:
            return 1.0
        pairs = 0
        connected = 0
        for i, a in enumerate(qubits):
            for b in qubits[i + 1 :]:
                pairs += 1
                if self.are_connected(a, b):
                    connected += 1
        return connected / pairs


# ---------------------------------------------------------------------------
# factories for the paper's topology families
# ---------------------------------------------------------------------------

def line_topology(num_qubits: int, name: str | None = None) -> Topology:
    """A 1-D chain: the Manila / Santiago / Bogota layout."""
    edges = tuple((i, i + 1) for i in range(num_qubits - 1))
    return Topology(name or f"line_{num_qubits}", num_qubits, edges)


def t_shape_topology(name: str = "t_shape") -> Topology:
    """The 5-qubit Falcon r4T layout (Lima / Belem / Quito).

    Qubit 1 is the hub: ``0-1-2`` in a row with ``1-3-4`` hanging below.
    """
    return Topology(name, 5, ((0, 1), (1, 2), (1, 3), (3, 4)))


def h_shape_topology(name: str = "h_shape") -> Topology:
    """The 7-qubit Falcon H layout (Casablanca / Lagos)."""
    return Topology(name, 7, ((0, 1), (1, 2), (1, 3), (3, 5), (4, 5), (5, 6)))


def fully_connected_topology(num_qubits: int, name: str | None = None) -> Topology:
    """All-to-all coupling (the retired 5-qubit ``ibmq_x2`` / Yorktown style)."""
    edges = tuple(
        (a, b) for a in range(num_qubits) for b in range(a + 1, num_qubits)
    )
    return Topology(name or f"full_{num_qubits}", num_qubits, edges)


#: The published 27-qubit Falcon r4 heavy-hex coupling map (ibmq_toronto).
_TORONTO_EDGES: tuple[tuple[int, int], ...] = (
    (0, 1), (1, 2), (1, 4), (2, 3), (3, 5), (4, 7), (5, 8), (6, 7), (7, 10),
    (8, 9), (8, 11), (10, 12), (11, 14), (12, 13), (12, 15), (13, 14),
    (14, 16), (15, 18), (16, 19), (17, 18), (18, 21), (19, 20), (19, 22),
    (21, 23), (22, 25), (23, 24), (24, 25), (25, 26),
)


def toronto_topology(name: str = "toronto_heavy_hex") -> Topology:
    """The 27-qubit heavy-hex lattice of ibmq_toronto."""
    return Topology(name, 27, _TORONTO_EDGES)


def heavy_hex_topology(rows: int, row_length: int, name: str | None = None) -> Topology:
    """A generic heavy-hex style lattice used for large devices.

    Rows of ``row_length`` qubits are connected in chains; adjacent rows are
    stitched by sparse vertical bridges every third column, giving the
    brick-wall / honeycomb connectivity pattern of IBM's Falcon and Hummingbird
    processors (average degree a little above 2).
    """
    if rows < 1 or row_length < 2:
        raise ValueError("heavy-hex lattice needs rows >= 1 and row_length >= 2")
    edges: list[tuple[int, int]] = []
    def qubit(r: int, c: int) -> int:
        return r * row_length + c

    for r in range(rows):
        for c in range(row_length - 1):
            edges.append((qubit(r, c), qubit(r, c + 1)))
    for r in range(rows - 1):
        offset = 0 if r % 2 == 0 else 2
        for c in range(offset, row_length, 4):
            edges.append((qubit(r, c), qubit(r + 1, c)))
    num_qubits = rows * row_length
    return Topology(name or f"heavy_hex_{num_qubits}", num_qubits, tuple(edges))


def manhattan_topology(name: str = "manhattan_heavy_hex") -> Topology:
    """A 65-qubit heavy-hex approximation of ibm_manhattan.

    The exact published map is not needed for any EQC quantity — only the
    sparse-connectivity routing overhead matters — so we build a 5x13
    heavy-hex lattice of the same size and average degree.
    """
    return heavy_hex_topology(5, 13, name=name)
