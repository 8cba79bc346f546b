"""Tests for the QuantumCircuit IR."""

import math

import pytest

from repro.circuit import (
    Parameter,
    ParameterVector,
    QuantumCircuit,
    ghz_state,
    hardware_efficient_ansatz,
)
from repro.circuit.gates import Instruction


class TestConstruction:
    def test_width_validation(self):
        with pytest.raises(ValueError):
            QuantumCircuit(0)

    def test_gate_helpers_append(self):
        qc = QuantumCircuit(2)
        qc.h(0).cx(0, 1).measure_all()
        assert len(qc) == 4
        assert qc.count_ops() == {"h": 1, "cx": 1, "measure": 2}

    def test_out_of_range_qubit_rejected(self):
        qc = QuantumCircuit(2)
        with pytest.raises(ValueError):
            qc.h(2)

    def test_add_gate_by_name(self):
        qc = QuantumCircuit(1)
        qc.add_gate("rx", [0], [0.5])
        assert qc.instructions[0].name == "rx"

    def test_chainable_interface(self):
        qc = QuantumCircuit(3)
        result = qc.h(0).cx(0, 1).cx(1, 2)
        assert result is qc


class TestParameters:
    def test_parameters_collected(self):
        p, q = Parameter("a"), Parameter("b")
        qc = QuantumCircuit(1).rx(p, 0).rz(q, 0)
        assert qc.parameters == frozenset({p, q})

    def test_is_bound(self):
        qc = QuantumCircuit(1).rx(0.5, 0)
        assert qc.is_bound
        qc.ry(Parameter("a"), 0)
        assert not qc.is_bound

    def test_bind_parameters(self):
        p = Parameter("a")
        qc = QuantumCircuit(1).rx(p, 0)
        bound = qc.bind_parameters({p: 0.25})
        assert bound.is_bound
        assert bound.instructions[0].params == (0.25,)
        # the original is untouched
        assert not qc.is_bound

    def test_ordered_parameters_follow_first_appearance(self):
        vec = ParameterVector("t", 3)
        qc = QuantumCircuit(2)
        qc.ry(vec[2], 0).ry(vec[0], 1).ry(vec[1], 0)
        assert qc.ordered_parameters() == [vec[2], vec[0], vec[1]]

    def test_assign_by_order(self):
        vec = ParameterVector("t", 2)
        qc = QuantumCircuit(1).ry(vec[0], 0).rz(vec[1], 0)
        bound = qc.assign_by_order([0.1, 0.2])
        assert bound.instructions[0].params == (0.1,)
        assert bound.instructions[1].params == (0.2,)

    def test_assign_by_order_wrong_length(self):
        vec = ParameterVector("t", 2)
        qc = QuantumCircuit(1).ry(vec[0], 0).rz(vec[1], 0)
        with pytest.raises(ValueError):
            qc.assign_by_order([0.1])


class TestMetrics:
    def test_depth_linear_chain(self):
        qc = QuantumCircuit(1).h(0).h(0).h(0)
        assert qc.depth() == 3

    def test_depth_parallel_gates(self):
        qc = QuantumCircuit(2).h(0).h(1)
        assert qc.depth() == 1

    def test_depth_with_entangler(self):
        qc = QuantumCircuit(2).h(0).cx(0, 1).h(1)
        assert qc.depth() == 3

    def test_critical_depth_counts_only_two_qubit_gates(self):
        qc = QuantumCircuit(2).h(0).cx(0, 1).h(1).cx(0, 1)
        assert qc.critical_depth() == 2

    def test_critical_depth_zero_without_entanglers(self):
        qc = QuantumCircuit(2).h(0).h(1)
        assert qc.critical_depth() == 0

    def test_gate_counts(self):
        qc = QuantumCircuit(3).h(0).cx(0, 1).swap(1, 2).measure_all()
        assert qc.num_single_qubit_gates == 1
        # swap counts as three CNOTs
        assert qc.num_two_qubit_gates == 1 + 3
        assert qc.num_measurements == 3

    def test_measured_qubits_deduplicated(self):
        qc = QuantumCircuit(2).measure(1).measure(1).measure(0)
        assert qc.measured_qubits == (1, 0)

    def test_barrier_does_not_add_depth(self):
        qc = QuantumCircuit(2).h(0)
        qc.barrier()
        qc.h(1)
        assert qc.depth() == 2  # barrier synchronizes, h(1) starts a new layer


class TestStructureKey:
    def test_bindings_share_a_structure_key(self):
        template = hardware_efficient_ansatz(4)
        a = template.assign_by_order([0.1] * 16)
        b = template.assign_by_order([0.9] * 16)
        assert a.structure_key == b.structure_key

    def test_different_structures_differ(self):
        assert ghz_state(4).structure_key != ghz_state(5).structure_key


class TestTransformations:
    def test_copy_is_independent(self):
        qc = QuantumCircuit(1).h(0)
        other = qc.copy()
        other.x(0)
        assert len(qc) == 1
        assert len(other) == 2

    def test_compose_appends(self):
        first = QuantumCircuit(2).h(0)
        second = QuantumCircuit(2).cx(0, 1)
        combined = first.compose(second)
        assert [i.name for i in combined] == ["h", "cx"]
        assert len(first) == 1

    def test_compose_wider_circuit_rejected(self):
        with pytest.raises(ValueError):
            QuantumCircuit(2).compose(QuantumCircuit(3))

    def test_without_measurements(self):
        qc = QuantumCircuit(2).h(0).measure_all()
        stripped = qc.without_measurements()
        assert stripped.num_measurements == 0
        assert qc.num_measurements == 2

    def test_repr_and_draw(self):
        qc = QuantumCircuit(2, name="demo").h(0)
        assert "demo" in repr(qc)
        assert "demo" in qc.draw()

    def test_append_validates_range(self):
        qc = QuantumCircuit(2)
        with pytest.raises(ValueError):
            qc.append(Instruction("x", (5,)))
