"""The networkx-backed MaxCut graph and Hamiltonian, as the library built them.

``repro.hamiltonian.maxcut`` must reproduce this edge order, these weights and
these Hamiltonian terms bit for bit (tests/test_hamiltonian/test_maxcut_oracle.py).
"""

import networkx as nx

from repro.hamiltonian.pauli import PauliString, PauliSum


def maxcut_graph(num_nodes, edges, weights=None):
    graph = nx.Graph()
    graph.add_nodes_from(range(num_nodes))
    for a, b in edges:
        a, b = int(a), int(b)
        if a == b:
            raise ValueError("MaxCut graphs must not contain self-loops")
        weight = 1.0
        if weights is not None:
            weight = float(weights.get((a, b), weights.get((b, a), 1.0)))
        if weight <= 0:
            raise ValueError("edge weights must be positive")
        graph.add_edge(a, b, weight=weight)
    return graph


def maxcut_hamiltonian(graph):
    num_qubits = graph.number_of_nodes()
    if num_qubits < 2:
        raise ValueError("MaxCut needs at least two nodes")
    terms = []
    identity = "I" * num_qubits
    for a, b, data in graph.edges(data=True):
        weight = float(data.get("weight", 1.0))
        label = "".join("Z" if q in (a, b) else "I" for q in range(num_qubits))
        terms.append(PauliString(identity, -0.5 * weight))
        terms.append(PauliString(label, 0.5 * weight))
    return PauliSum(terms).simplify()
