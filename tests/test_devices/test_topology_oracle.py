"""Differential tests: every ``Topology`` graph query against networkx.

The routing pass asks ``shortest_path`` for the hops of each inserted SWAP, so
among equally short paths it must return the very one networkx returns, or a
transpiled circuit (and every seeded history downstream) changes.  networkx is
a test-only dependency; the oracle graph is built the way the library used to
build it: nodes ``0 .. n - 1``, then the normalized edges in order.
"""

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.catalog import TABLE_I
from repro.devices.topology import Topology, heavy_hex_topology


def oracle(topology: Topology) -> nx.Graph:
    graph = nx.Graph()
    graph.add_nodes_from(range(topology.num_qubits))
    graph.add_edges_from(topology.edges)
    return graph


def assert_matches_networkx(topology: Topology) -> None:
    graph = oracle(topology)
    n = topology.num_qubits
    assert topology.is_connected == nx.is_connected(graph)
    assert list(topology.distance_matrix.items()) == [
        ((a, b), d) for a, targets in nx.all_pairs_shortest_path_length(graph) for b, d in targets.items()
    ]
    for q in range(n):
        assert topology.neighbors(q) == tuple(sorted(graph.neighbors(q)))
        assert topology.degree(q) == graph.degree[q]
    for a in range(n):
        for b in range(n):
            if nx.has_path(graph, a, b):
                assert topology.shortest_path(a, b) == nx.shortest_path(graph, a, b), (a, b)
                assert topology.distance(a, b) == nx.shortest_path_length(graph, a, b)
            else:
                with pytest.raises(ValueError, match=rf"no path between qubits {a} and {b}"):
                    topology.shortest_path(a, b)


@st.composite
def drawn_topologies(draw):
    """1-14 qubits at a drawn density, edges shuffled and half of them reversed."""
    n = draw(st.integers(min_value=1, max_value=14))
    density = draw(st.sampled_from([0.1, 0.2, 0.35, 0.6, 1.0]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < density]
    rng.shuffle(edges)
    edges = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in edges]
    return Topology("drawn", n, tuple(edges))


@settings(max_examples=200, deadline=None)
@given(drawn_topologies())
def test_drawn_topologies_match_networkx(topology):
    assert_matches_networkx(topology)


@pytest.mark.parametrize(
    "topology",
    [spec.topology for spec in TABLE_I.values()]  # Table I, Toronto and Manhattan
    + [heavy_hex_topology(3, 9), heavy_hex_topology(4, 6)],
    ids=lambda topology: topology.name,
)
def test_device_topologies_match_networkx(topology):
    assert_matches_networkx(topology)
