"""Tests for initial layout selection."""

import pytest

from repro.circuit import QuantumCircuit, hardware_efficient_ansatz
from repro.devices.topology import line_topology, t_shape_topology, toronto_topology
from repro.transpiler.layout import Layout, interaction_counts, select_layout


class TestLayout:
    def test_bijection_enforced(self):
        with pytest.raises(ValueError):
            Layout({0: 1, 1: 1}, num_physical=3)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Layout({0: 7}, num_physical=3)

    def test_lookup_both_directions(self):
        layout = Layout({0: 2, 1: 0}, num_physical=3)
        assert layout.physical(0) == 2
        assert layout.logical(2) == 0
        assert layout.logical(1) is None

    def test_swapped(self):
        layout = Layout({0: 0, 1: 1}, num_physical=3)
        swapped = layout.swapped(1, 2)
        assert swapped.physical(1) == 2
        assert swapped.physical(0) == 0
        # original unchanged
        assert layout.physical(1) == 1

    def test_swapped_with_empty_slot(self):
        layout = Layout({0: 0}, num_physical=2)
        swapped = layout.swapped(0, 1)
        assert swapped.physical(0) == 1


class TestInteractionCounts:
    def test_counts_two_qubit_participation(self):
        qc = QuantumCircuit(3).cx(0, 1).cx(0, 2).h(2)
        counts = interaction_counts(qc)
        assert counts[0] == 2
        assert counts[1] == 1
        assert counts[2] == 1


class TestSelectLayout:
    def test_circuit_wider_than_device_rejected(self):
        qc = QuantumCircuit(6)
        with pytest.raises(ValueError):
            select_layout(qc, line_topology(5))

    def test_greedy_layout_covers_all_logical_qubits(self):
        qc = hardware_efficient_ansatz(4)
        layout = select_layout(qc, toronto_topology())
        assert len(layout) >= 4
        assert len({layout.physical(q) for q in range(4)}) == 4

    def test_greedy_places_busy_qubits_on_hub(self):
        """On the T-shape device the hub (physical qubit 1) should host one of
        the most interaction-heavy logical qubits."""
        qc = hardware_efficient_ansatz(4)
        layout = select_layout(qc, t_shape_topology())
        counts = interaction_counts(qc)
        busiest = max(counts, key=counts.get)
        hub_logical = layout.logical(1)
        assert hub_logical is not None
        assert counts[hub_logical] >= counts[busiest] - 1

    def test_greedy_region_is_connected_when_possible(self):
        qc = QuantumCircuit(4).cx(0, 1).cx(1, 2).cx(2, 3)
        layout = select_layout(qc, toronto_topology())
        physical = [layout.physical(q) for q in range(4)]
        topo = toronto_topology()
        # every chosen qubit has at least one neighbour among the chosen set
        for q in physical:
            assert any(n in physical for n in topo.neighbors(q))
