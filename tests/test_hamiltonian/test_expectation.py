"""Tests for expectation estimation and the EnergyEstimator."""

import numpy as np
import pytest

from repro.circuit import QuantumCircuit, hardware_efficient_ansatz
from repro.hamiltonian.expectation import (
    EnergyEstimator,
    exact_expectation,
    expectation_from_group_counts,
)
from repro.hamiltonian.grouping import group_qubitwise_commuting
from repro.hamiltonian.heisenberg import heisenberg_square_lattice
from repro.hamiltonian.pauli import PauliSum
from repro.simulator.sampler import sample_circuit_ideal


class TestExactExpectation:
    def test_all_zero_state(self, heisenberg_h):
        circuit = QuantumCircuit(4)
        # |0000>: ZZ edge terms give +4, field gives +4, XX/YY give 0
        assert exact_expectation(circuit, heisenberg_h) == pytest.approx(8.0)

    def test_measurements_are_stripped(self, heisenberg_h):
        circuit = QuantumCircuit(4).measure_all()
        assert exact_expectation(circuit, heisenberg_h) == pytest.approx(8.0)

    def test_single_qubit_z(self):
        h = PauliSum.from_dict({"Z": 1.0})
        circuit = QuantumCircuit(1).x(0)
        assert exact_expectation(circuit, h) == pytest.approx(-1.0)


class TestEnergyEstimator:
    def test_width_mismatch_rejected(self, heisenberg_h):
        with pytest.raises(ValueError):
            EnergyEstimator(QuantumCircuit(3), heisenberg_h)

    def test_parameter_bookkeeping(self, heisenberg_h):
        estimator = EnergyEstimator(hardware_efficient_ansatz(4), heisenberg_h)
        assert estimator.num_parameters == 16
        assert estimator.num_groups == 3

    def test_bindings_length_check(self, heisenberg_h):
        estimator = EnergyEstimator(hardware_efficient_ansatz(4), heisenberg_h)
        with pytest.raises(ValueError):
            estimator.bindings([0.0] * 3)

    def test_measurement_circuits_are_bound_and_measured(self, heisenberg_h):
        estimator = EnergyEstimator(hardware_efficient_ansatz(4), heisenberg_h)
        circuits = estimator.measurement_circuits([0.1] * 16)
        assert len(circuits) == 3
        for circuit in circuits:
            assert circuit.is_bound
            assert circuit.num_measurements == 4

    def test_template_circuits_stay_parameterized(self, heisenberg_h):
        estimator = EnergyEstimator(hardware_efficient_ansatz(4), heisenberg_h)
        for circuit in estimator.template_circuits():
            assert len(circuit.parameters) == 16

    def test_ground_energy(self, heisenberg_h):
        estimator = EnergyEstimator(hardware_efficient_ansatz(4), heisenberg_h)
        assert estimator.ground_energy() == pytest.approx(-8.0)

    def test_exact_energy_at_zero_parameters(self, heisenberg_h):
        estimator = EnergyEstimator(hardware_efficient_ansatz(4), heisenberg_h)
        assert estimator.exact_energy([0.0] * 16) == pytest.approx(8.0)

    @pytest.mark.parametrize("problem", ["vqe_problem", "qaoa_problem"])
    def test_exact_energy_binds_no_circuit(self, problem, request, monkeypatch):
        """The per-epoch exact loss resolves its angles inside the simulator
        and binds no circuit."""
        estimator = request.getfixturevalue(problem).estimator
        theta = np.linspace(-1.2, 0.9, estimator.num_parameters)
        expected = estimator.exact_energy(theta)

        def refuse(self, values):
            raise AssertionError("exact_energy bound a circuit")

        monkeypatch.setattr(QuantumCircuit, "bind_parameters", refuse)
        assert estimator.exact_energy(theta).hex() == expected.hex()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_angles_are_refused_naming_point_and_index(self, qaoa_problem, bad):
        """The exact path refuses a NaN or infinite angle with a
        ``ValueError`` that names its parameter index and point, as a
        ``ParameterSweep`` does, instead of returning ``nan``."""
        estimator = qaoa_problem.estimator
        with pytest.raises(ValueError, match=r"non-finite angle .* parameter index 0 \(point 0\)"):
            estimator.exact_energy([bad, 0.1])
        matrix = [[0.2, 0.1], [0.3, 0.4], [0.5, bad]]
        pattern = r"non-finite angle .* parameter index 1 \(point 2\)"
        with pytest.raises(ValueError, match=pattern):
            estimator.exact_energy(np.array(matrix))

    def test_one_row_matrix_is_an_array_and_a_vector_a_float(self, qaoa_problem):
        estimator = qaoa_problem.estimator
        alone = estimator.exact_energy([0.3, -0.7])
        batch = estimator.exact_energy(np.array([[0.3, -0.7]]))
        assert isinstance(alone, float) and batch.shape == (1,)
        assert float(batch[0]).hex() == alone.hex()
        with pytest.raises(ValueError, match="non-empty"):
            estimator.exact_energy(np.empty((0, 2)))

    def test_sampled_energy_matches_exact(self, heisenberg_h, rng):
        """Sampling each measurement group with many shots reproduces the
        exact energy to within statistical error."""
        estimator = EnergyEstimator(hardware_efficient_ansatz(4), heisenberg_h)
        theta = np.linspace(0.1, 1.5, 16)
        circuits = estimator.measurement_circuits(theta)
        counts = [sample_circuit_ideal(c, 30000, rng) for c in circuits]
        sampled = estimator.energy_from_counts(counts)
        exact = estimator.exact_energy(theta)
        assert sampled == pytest.approx(exact, abs=0.15)

    def test_energy_from_counts_group_mismatch(self, heisenberg_h):
        estimator = EnergyEstimator(hardware_efficient_ansatz(4), heisenberg_h)
        with pytest.raises(ValueError):
            expectation_from_group_counts(estimator.groups, [])
