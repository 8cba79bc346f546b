"""Tests for the parameter-shift rule."""

import math

import numpy as np
import pytest

from repro.circuit import QuantumCircuit, Parameter
from repro.hamiltonian.expectation import EnergyEstimator
from repro.hamiltonian.pauli import PauliSum
from repro.vqa.gradient import (
    PARAMETER_SHIFT,
    exact_full_gradient,
    exact_parameter_shift_gradient,
    gradient_from_energies,
    shifted_parameter_vectors,
)


@pytest.fixture
def single_ry_estimator():
    """<Z> of RY(theta)|0> = cos(theta): an analytically known landscape."""
    p = Parameter("theta")
    circuit = QuantumCircuit(1).ry(p, 0)
    return EnergyEstimator(circuit, PauliSum.from_dict({"Z": 1.0}))


class TestShiftedVectors:
    def test_shift_applied_to_target_only(self):
        pair = shifted_parameter_vectors([0.1, 0.2, 0.3], 1)
        assert pair.forward == (0.1, 0.2 + PARAMETER_SHIFT, 0.3)
        assert pair.backward == (0.1, 0.2 - PARAMETER_SHIFT, 0.3)

    def test_out_of_range_index_rejected(self):
        with pytest.raises(IndexError):
            shifted_parameter_vectors([0.1], 3)

    def test_custom_shift(self):
        pair = shifted_parameter_vectors([0.0], 0, shift=0.1)
        assert pair.forward == (0.1,)

    def test_gradient_from_energies(self):
        assert gradient_from_energies(1.0, 0.0) == pytest.approx(0.5)


class TestParameterShiftCorrectness:
    @pytest.mark.parametrize("theta", [0.0, 0.3, 1.0, math.pi / 2, 2.5, -1.2])
    def test_matches_analytic_derivative(self, single_ry_estimator, theta):
        """d<Z>/dtheta = -sin(theta) for the RY test circuit."""
        gradient = exact_parameter_shift_gradient(single_ry_estimator, [theta], 0)
        assert gradient == pytest.approx(-math.sin(theta), abs=1e-9)

    def test_matches_finite_differences_on_vqe_ansatz(self, vqe_problem):
        estimator = vqe_problem.estimator
        rng = np.random.default_rng(3)
        theta = rng.uniform(-1, 1, estimator.num_parameters)
        index = 5
        shift_gradient = exact_parameter_shift_gradient(estimator, theta, index)
        eps = 1e-5
        plus = list(theta)
        minus = list(theta)
        plus[index] += eps
        minus[index] -= eps
        fd = (estimator.exact_energy(plus) - estimator.exact_energy(minus)) / (2 * eps)
        assert shift_gradient == pytest.approx(fd, abs=1e-5)

    @pytest.mark.parametrize("problem", ["vqe_problem", "qaoa_problem"])
    def test_full_gradient_is_the_per_index_gradient(self, problem, request):
        """One exact gradient: the whole-sweep pass returns, bit for bit, the
        per-index derivative at every index."""
        estimator = request.getfixturevalue(problem).estimator
        rng = np.random.default_rng(9)
        for theta in rng.uniform(-np.pi, np.pi, (4, estimator.num_parameters)):
            full = exact_full_gradient(estimator, theta)
            assert [v.hex() for v in full.tolist()] == [
                exact_parameter_shift_gradient(estimator, theta, index).hex()
                for index in range(estimator.num_parameters)
            ]

    def test_full_gradient_shape(self, vqe_problem):
        theta = np.zeros(vqe_problem.num_parameters)
        gradient = exact_full_gradient(vqe_problem.estimator, theta)
        assert gradient.shape == (16,)

    def test_gradient_zero_at_minimum_of_ry(self, single_ry_estimator):
        gradient = exact_parameter_shift_gradient(single_ry_estimator, [math.pi], 0)
        assert gradient == pytest.approx(0.0, abs=1e-9)
