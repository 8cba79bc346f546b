"""Tests for the Heisenberg and MaxCut model Hamiltonians."""

import numpy as np
import pytest

from repro.hamiltonian.heisenberg import (
    SQUARE_LATTICE_EDGES,
    heisenberg_hamiltonian,
    heisenberg_square_lattice,
)
from repro.hamiltonian.maxcut import (
    RING_GRAPH_EDGES,
    best_cut,
    cut_value,
    maxcut_graph,
    maxcut_hamiltonian,
    ring_maxcut_hamiltonian,
)


class TestHeisenberg:
    def test_term_count(self):
        """4 edges x 3 axes + 4 field terms = 16 Pauli strings."""
        h = heisenberg_square_lattice()
        assert len(h) == 16

    def test_ground_energy_of_ring(self):
        """The 4-site Heisenberg ring (Pauli convention) has E0 = -8; the
        longitudinal field does not lower the Sz=0 ground state."""
        h = heisenberg_square_lattice()
        assert h.ground_state_energy() == pytest.approx(-8.0, abs=1e-9)

    def test_field_only_hamiltonian(self):
        h = heisenberg_hamiltonian(2, edges=[], coupling=1.0, field=1.0)
        assert h.ground_state_energy() == pytest.approx(-2.0)

    def test_coupling_scaling(self):
        weak = heisenberg_hamiltonian(4, SQUARE_LATTICE_EDGES, coupling=0.5, field=0.0)
        strong = heisenberg_hamiltonian(4, SQUARE_LATTICE_EDGES, coupling=1.0, field=0.0)
        assert strong.ground_state_energy() == pytest.approx(
            2 * weak.ground_state_energy(), rel=1e-9
        )

    def test_invalid_edge_rejected(self):
        with pytest.raises(ValueError):
            heisenberg_hamiltonian(3, [(0, 3)])

    def test_hermitian(self):
        matrix = heisenberg_square_lattice().to_matrix()
        assert np.allclose(matrix, matrix.conj().T)


class TestMaxCut:
    def test_graph_construction(self):
        graph = maxcut_graph(4, RING_GRAPH_EDGES)
        assert graph.num_nodes == 4
        assert graph.edges == ((0, 1, 1.0), (0, 3, 1.0), (1, 2, 1.0), (2, 3, 1.0))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            maxcut_graph(3, [(1, 1)])

    @pytest.mark.parametrize("edge", [(1, 5), (5, 1), (-1, 2), (0, 3)])
    def test_endpoint_outside_the_nodes_rejected(self, edge):
        """An out-of-range endpoint used to add a node silently: (1, 5) on 3
        nodes gave a 4-qubit Hamiltonian whose edge became a lone Z term."""
        a, b = edge
        with pytest.raises(ValueError, match=rf"edge \({a}, {b}\).*num_nodes=3"):
            maxcut_graph(3, [(0, 1), edge])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            maxcut_graph(2, [(0, 1)], weights={(0, 1): -1.0})

    def test_hamiltonian_is_diagonal(self):
        assert ring_maxcut_hamiltonian().is_diagonal

    def test_ground_energy_equals_minus_maxcut(self):
        """For the unweighted 4-ring the maximum cut is 4, so the Hamiltonian
        minimum is -4."""
        h = ring_maxcut_hamiltonian()
        assert h.ground_state_energy() == pytest.approx(-4.0)

    def test_cut_value(self):
        graph = maxcut_graph(4, RING_GRAPH_EDGES)
        assert cut_value(graph, "0101") == pytest.approx(4.0)
        assert cut_value(graph, "0000") == pytest.approx(0.0)
        assert cut_value(graph, "0011") == pytest.approx(2.0)

    def test_cut_value_length_mismatch(self):
        graph = maxcut_graph(4, RING_GRAPH_EDGES)
        with pytest.raises(ValueError):
            cut_value(graph, "01")

    def test_best_cut(self):
        graph = maxcut_graph(4, RING_GRAPH_EDGES)
        bits, value = best_cut(graph)
        assert value == pytest.approx(4.0)
        assert cut_value(graph, bits) == pytest.approx(4.0)

    def test_weighted_graph(self):
        graph = maxcut_graph(3, [(0, 1), (1, 2)], weights={(0, 1): 2.0, (1, 2): 3.0})
        _, value = best_cut(graph)
        assert value == pytest.approx(5.0)

    def test_hamiltonian_energy_matches_cut(self):
        """<bitstring|H|bitstring> = -cut(bitstring) for every bitstring."""
        graph = maxcut_graph(4, RING_GRAPH_EDGES)
        h = maxcut_hamiltonian(graph)
        matrix = h.to_matrix()
        for index in range(16):
            bits = format(index, "04b")
            energy = matrix[index, index].real
            assert energy == pytest.approx(-cut_value(graph, bits))

    def test_best_cut_size_limit(self):
        big = maxcut_graph(25, [(i, i + 1) for i in range(24)])
        with pytest.raises(ValueError):
            best_cut(big)
