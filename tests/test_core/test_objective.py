"""Tests for the gradient objectives (EnergyObjective / QnnObjective)."""

import numpy as np
import pytest

from repro.core.objective import EnergyObjective, GradientJobSpec, QnnObjective
from repro.simulator.sampler import sample_circuit_ideal
from repro.vqa.gradient import exact_parameter_shift_gradient
from repro.vqa.qnn import QNNProblem, make_synthetic_dataset
from repro.vqa.tasks import GradientTask


class TestGradientJobSpec:
    def test_alignment_enforced(self):
        from repro.circuit import ParameterSweep, QuantumCircuit

        qc = QuantumCircuit(1).h(0)
        with pytest.raises(ValueError):
            GradientJobSpec(ParameterSweep([qc], [[]]), template_keys=())

    def test_empty_rejected(self):
        from repro.circuit import ParameterSweep

        with pytest.raises(ValueError):
            GradientJobSpec(ParameterSweep([], [[]]), template_keys=())


class TestEnergyObjective:
    def test_build_job_shapes(self, vqe_problem):
        objective = EnergyObjective(vqe_problem.estimator)
        task = GradientTask(task_id=0, parameter_index=3)
        job = objective.build_job(task, [0.1] * 16)
        # The job is unbound: the 3 group templates and a forward/backward
        # parameter matrix standing for 6 circuits, point-major.
        assert job.templates == tuple(vqe_problem.estimator.template_circuits())
        assert len(set(job.template_keys)) == len(job.template_keys) == 3
        assert job.batch.theta.shape == (2, 16)
        expected = np.full((2, 16), 0.1)
        expected[0, 3] += np.pi / 2
        expected[1, 3] -= np.pi / 2
        assert np.array_equal(job.batch.theta, expected)
        assert job.num_circuits == 6
        # The lazily bound inspection view, in execution order.
        circuits = job.circuits
        assert len(circuits) == 6
        assert all(circuit.is_bound for circuit in circuits)
        assert [c.structure_key for c in circuits] == 2 * [
            t.structure_key for t in job.templates
        ]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_theta_names_task_and_parameter(self, vqe_problem, bad):
        objective = EnergyObjective(vqe_problem.estimator)
        task = GradientTask(task_id=41, parameter_index=3)
        theta = [0.1] * 16
        theta[5] = bad
        with pytest.raises(ValueError, match=r"task_id=41.*parameter index 5"):
            objective.build_job(task, theta)

    def test_wrong_width_theta_rejected(self, vqe_problem):
        objective = EnergyObjective(vqe_problem.estimator)
        task = GradientTask(task_id=0, parameter_index=0)
        with pytest.raises(ValueError, match="16 parameters"):
            objective.build_job(task, [0.1] * 15)

    def test_templates_are_checked_at_construction(self):
        """The templates' parameter counts are read once, when the objective
        is built; a job's sweep compares theta with that count."""
        from types import SimpleNamespace

        from repro.circuit import Parameter, QuantumCircuit

        a, b = Parameter("a"), Parameter("b")
        one = QuantumCircuit(1).ry(a, 0)
        two = QuantumCircuit(1).ry(a, 0).rx(b, 0)
        with pytest.raises(ValueError, match="EnergyObjective: template .* has 2 parameters"):
            EnergyObjective(SimpleNamespace(template_circuits=lambda: [one, two]))
        objective = EnergyObjective(SimpleNamespace(template_circuits=lambda: [two, two]))
        job = objective.build_job(GradientTask(task_id=0, parameter_index=1), [0.1, 0.2])
        assert job.batch.templates == (two, two) and job.batch.theta.shape == (2, 2)
        with pytest.raises(ValueError, match="templates of 2 parameters, theta of 1"):
            objective.build_job(GradientTask(task_id=0, parameter_index=0), [0.1])

    def test_gradient_from_ideal_counts_matches_exact(self, vqe_problem, rng):
        objective = EnergyObjective(vqe_problem.estimator)
        theta = np.linspace(-0.4, 0.6, 16)
        task = GradientTask(task_id=0, parameter_index=7)
        job = objective.build_job(task, theta)
        counts = [sample_circuit_ideal(c, 40000, rng) for c in job.circuits]
        estimated = objective.gradient_from_counts(task, counts)
        exact = exact_parameter_shift_gradient(vqe_problem.estimator, theta, 7)
        assert estimated == pytest.approx(exact, abs=0.08)

    def test_gradient_count_mismatch_rejected(self, vqe_problem):
        objective = EnergyObjective(vqe_problem.estimator)
        task = GradientTask(task_id=0, parameter_index=0)
        with pytest.raises(ValueError):
            objective.gradient_from_counts(task, [])

    def test_exact_loss_delegates_to_estimator(self, vqe_problem):
        objective = EnergyObjective(vqe_problem.estimator)
        theta = [0.0] * 16
        assert objective.exact_loss(theta) == pytest.approx(vqe_problem.energy(theta))

    def test_num_parameters(self, qaoa_problem):
        assert EnergyObjective(qaoa_problem.estimator).num_parameters == 2


class TestQnnObjective:
    @pytest.fixture
    def qnn(self):
        return QNNProblem("qnn", make_synthetic_dataset(4, seed=3), num_qubits=4)

    def test_build_job_includes_centre_forward_backward(self, qnn):
        objective = QnnObjective(qnn)
        task = GradientTask(task_id=0, parameter_index=1, data_index=2)
        job = objective.build_job(task, [0.1] * qnn.num_parameters)
        groups = qnn.estimator_for(2).num_groups
        assert len(job.circuits) == job.num_circuits == 3 * groups
        assert job.batch.theta.shape == (3, qnn.num_parameters)
        assert np.array_equal(job.batch.theta[0], [0.1] * qnn.num_parameters)

    def test_missing_data_index_rejected(self, qnn):
        objective = QnnObjective(qnn)
        task = GradientTask(task_id=0, parameter_index=0)
        with pytest.raises(ValueError):
            objective.build_job(task, [0.1] * qnn.num_parameters)

    def test_gradient_matches_exact_chain_rule(self, qnn, rng):
        objective = QnnObjective(qnn)
        theta = qnn.random_initial_parameters()
        task = GradientTask(task_id=0, parameter_index=2, data_index=1)
        job = objective.build_job(task, theta)
        counts = [sample_circuit_ideal(c, 30000, rng) for c in job.circuits]
        estimated = objective.gradient_from_counts(task, counts)
        exact = qnn.sample_gradient(theta, 2, 1)
        assert estimated == pytest.approx(exact, abs=0.1)

    def test_exact_loss_is_dataset_loss(self, qnn):
        objective = QnnObjective(qnn)
        theta = qnn.random_initial_parameters()
        assert objective.exact_loss(theta) == pytest.approx(qnn.dataset_loss(theta))
