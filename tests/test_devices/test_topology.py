"""Tests for device topologies."""

import pytest

from repro.devices.topology import (
    Topology,
    fully_connected_topology,
    h_shape_topology,
    heavy_hex_topology,
    line_topology,
    manhattan_topology,
    t_shape_topology,
    toronto_topology,
)


class TestTopologyBasics:
    def test_edges_normalized_and_deduplicated(self):
        topo = Topology("t", 3, ((1, 0), (0, 1), (1, 2)))
        assert topo.edges == ((0, 1), (1, 2))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Topology("t", 2, ((0, 0),))

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError):
            Topology("t", 2, ((0, 5),))

    def test_are_connected(self):
        topo = line_topology(3)
        assert topo.are_connected(0, 1)
        assert topo.are_connected(1, 0)
        assert not topo.are_connected(0, 2)

    def test_neighbors_and_degree(self):
        topo = t_shape_topology()
        assert topo.neighbors(1) == (0, 2, 3)
        assert topo.degree(1) == 3

    def test_directed_couplings_double_edges(self):
        topo = line_topology(4)
        assert len(topo.directed_couplings) == 2 * len(topo.edges)

    def test_distance_and_path(self):
        topo = line_topology(5)
        assert topo.distance(0, 4) == 4
        assert topo.shortest_path(0, 2) == [0, 1, 2]

    def test_shortest_path_breaks_ties_like_networkx(self):
        """A hexagon has two 3-hop paths from 0 to 5.  Expanding the forward
        fringe on equal sizes (networkx's rule, which routing's SWAPs follow)
        meets at 4; expanding the reverse one first would meet at 3."""
        hexagon = Topology("hexagon", 6, ((0, 1), (0, 2), (1, 4), (2, 3), (3, 5), (4, 5)))
        assert hexagon.shortest_path(0, 5) == [0, 1, 4, 5]

    def test_are_connected_off_the_device_is_false(self):
        topo = line_topology(3)
        assert not topo.are_connected(2, 3)
        assert not topo.are_connected(3, 2)
        assert not topo.are_connected(-1, 0)

    @pytest.mark.parametrize("query", ["shortest_path", "distance"])
    @pytest.mark.parametrize("pair", [(0, 7), (7, 0), (-1, 2)])
    def test_unknown_qubit_raises_value_error(self, query, pair):
        with pytest.raises(ValueError, match=rf"qubit pair \({pair[0]}, {pair[1]}\) is not on 5-qubit"):
            getattr(line_topology(5), query)(*pair)

    @pytest.mark.parametrize("query", ["shortest_path", "distance"])
    def test_disconnected_pair_raises_value_error(self, query):
        topo = Topology("split", 4, ((0, 1), (2, 3)))
        with pytest.raises(ValueError, match=r"no path between qubits 1 and 2 on 'split'"):
            getattr(topo, query)(1, 2)
        assert not topo.is_connected
        assert (1, 2) not in topo.distance_matrix

    @pytest.mark.parametrize("query", ["neighbors", "degree"])
    def test_neighbors_of_unknown_qubit_raise_value_error(self, query):
        with pytest.raises(ValueError, match=r"qubit -1 is not on 5-qubit"):
            getattr(t_shape_topology(), query)(-1)

    def test_distance_matrix_symmetric(self):
        topo = t_shape_topology()
        dm = topo.distance_matrix
        assert dm[(0, 4)] == dm[(4, 0)] == 3

    def test_subgraph_connectivity(self):
        topo = fully_connected_topology(4)
        assert topo.subgraph_connectivity([0, 1, 2]) == pytest.approx(1.0)
        line = line_topology(4)
        assert line.subgraph_connectivity([0, 1, 3]) == pytest.approx(1.0 / 3.0)


class TestTopologyFamilies:
    def test_line(self):
        topo = line_topology(5)
        assert topo.num_qubits == 5
        assert len(topo.edges) == 4
        assert topo.is_connected

    def test_t_shape_matches_falcon_layout(self):
        topo = t_shape_topology()
        assert topo.num_qubits == 5
        assert len(topo.edges) == 4
        assert topo.degree(1) == 3  # the hub qubit

    def test_h_shape(self):
        topo = h_shape_topology()
        assert topo.num_qubits == 7
        assert topo.is_connected
        degrees = sorted(topo.degree(q) for q in range(7))
        assert degrees == [1, 1, 1, 1, 2, 3, 3]

    def test_fully_connected(self):
        topo = fully_connected_topology(5)
        assert len(topo.edges) == 10
        assert topo.average_degree == pytest.approx(4.0)

    def test_toronto_is_27_qubit_sparse(self):
        topo = toronto_topology()
        assert topo.num_qubits == 27
        assert topo.is_connected
        assert topo.average_degree < 2.5

    def test_manhattan_is_65_qubit_sparse(self):
        topo = manhattan_topology()
        assert topo.num_qubits == 65
        assert topo.is_connected
        assert topo.average_degree < 2.6

    def test_heavy_hex_parameters_validated(self):
        with pytest.raises(ValueError):
            heavy_hex_topology(0, 5)

    def test_connectivity_ordering_matches_paper(self):
        """Fully connected > heavy-hex > line in average degree."""
        assert (
            fully_connected_topology(5).average_degree
            > toronto_topology().average_degree
            > 0
        )
        assert line_topology(5).average_degree <= t_shape_topology().average_degree + 1e-9
