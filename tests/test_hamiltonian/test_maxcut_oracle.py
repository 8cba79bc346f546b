"""Differential tests: ``maxcut_graph`` and ``maxcut_hamiltonian`` against networkx.

``tests/_reference/maxcut.py`` is the networkx-backed construction the library
used.  Its ``Graph.edges`` order fixes the Hamiltonian's term order and the
summation order of ``cut_value``, so both must come out bit-identical on edge
lists with duplicates, reversed pairs and partial weight maps.
"""

from _reference import maxcut as reference
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hamiltonian.maxcut import cut_value, maxcut_graph, maxcut_hamiltonian

weights = st.floats(min_value=0.01, max_value=10.0, allow_nan=False)


@st.composite
def instances(draw):
    """(num_nodes, edge list, weight map or None, bitstring)."""
    n = draw(st.integers(min_value=2, max_value=8))
    node = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(node, node).filter(lambda p: p[0] != p[1]), min_size=1, max_size=16))
    reversed_copies = draw(st.lists(st.sampled_from(pairs), max_size=4))
    edges = pairs + [(b, a) for a, b in reversed_copies]
    edges = draw(st.permutations(edges))
    weight_map = draw(
        st.none() | st.dictionaries(st.sampled_from(edges + [(b, a) for a, b in edges]), weights, max_size=8)
    )
    bits = draw(st.text(alphabet="01", min_size=n, max_size=n))
    return n, edges, weight_map, bits


@settings(max_examples=150, deadline=None)
@given(instances())
def test_graph_hamiltonian_and_cut_match_networkx(instance):
    n, edges, weight_map, bits = instance
    ours = maxcut_graph(n, edges, weight_map)
    theirs = reference.maxcut_graph(n, edges, weight_map)

    assert ours.num_nodes == theirs.number_of_nodes()
    assert ours.edges == tuple(theirs.edges(data="weight"))

    ours_h, theirs_h = maxcut_hamiltonian(ours), reference.maxcut_hamiltonian(theirs)
    assert [(t.label, t.coefficient.hex()) for t in ours_h] == [
        (t.label, t.coefficient.hex()) for t in theirs_h
    ]

    expected = 0.0
    for a, b, weight in theirs.edges(data="weight"):
        if bits[a] != bits[b]:
            expected += weight
    assert cut_value(ours, bits).hex() == expected.hex()
