"""Gradient objectives: what a client node actually runs for one task.

A :class:`VQAObjective` turns a :class:`~repro.vqa.tasks.GradientTask` plus a
parameter snapshot into an *unbound* circuit batch — the measurement-group
templates and the matrix of parameter points to run them at — and later
turns the measured counts back into a scalar gradient.  Two concrete
objectives cover the paper's applications:

* :class:`EnergyObjective` — VQE and QAOA: forward/backward parameter-shift
  points for every qubit-wise-commuting measurement group of the
  Hamiltonian.
* :class:`QnnObjective` — QNN training: a centre evaluation plus the
  forward/backward pair for the assigned data point, combined through the
  squared-loss chain rule.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from ..circuit.circuit import QuantumCircuit
from ..circuit.sweep import ParameterSweep
from ..hamiltonian.expectation import EnergyEstimator
from ..simulator.result import Counts
from ..vqa.gradient import gradient_from_energies, shifted_theta_matrix
from ..vqa.qnn import QNNProblem
from ..vqa.tasks import GradientTask

__all__ = ["GradientJobSpec", "VQAObjective", "EnergyObjective", "QnnObjective"]


@dataclass(frozen=True)
class GradientJobSpec:
    """What a client must run to serve one gradient task.

    ``batch`` is the job exactly as it travels to the device: the group
    templates and a ``(points, P)`` parameter matrix (rows forward/backward,
    or centre/forward/backward), never bound circuits.  ``template_keys[i]``
    identifies ``batch.templates[i]``; clients use it to cache one
    transpilation per template per device.
    """

    batch: ParameterSweep
    template_keys: tuple[Hashable, ...]

    def __post_init__(self) -> None:
        if len(self.template_keys) != len(self.batch.templates):
            raise ValueError("template_keys and templates must align")

    @property
    def templates(self) -> tuple[QuantumCircuit, ...]:
        return self.batch.templates

    @property
    def num_circuits(self) -> int:
        """Circuits the job occupies on the device (points x templates)."""
        return len(self.batch)

    @property
    def circuits(self) -> tuple[QuantumCircuit, ...]:
        """The job's circuits, bound on demand, in execution order.

        For inspection and tests; the training path never binds.
        """
        return tuple(self.batch.bound_circuits())


class VQAObjective(ABC):
    """Interface between the EQC scheduler and a concrete VQA loss."""

    @property
    @abstractmethod
    def num_parameters(self) -> int:
        """Number of trainable parameters."""

    @abstractmethod
    def build_job(self, task: GradientTask, theta: Sequence[float]) -> GradientJobSpec:
        """The unbound batch needed to differentiate ``task`` at ``theta``."""

    @abstractmethod
    def gradient_from_counts(self, task: GradientTask, counts: Sequence[Counts]) -> float:
        """Recombine the measured counts (same order as the job) into d loss/d theta."""

    @abstractmethod
    def exact_loss(self, theta: Sequence[float]) -> float:
        """Noise-free loss at ``theta`` (history tracking / convergence plots)."""

    def exact_losses(self, thetas: Sequence[Sequence[float]]) -> list[float]:
        """:meth:`exact_loss` at each of ``thetas``, in order."""
        return [self.exact_loss(theta) for theta in thetas]


class EnergyObjective(VQAObjective):
    """VQE/QAOA objective: minimize ``<H>`` of a parameterized ansatz."""

    def __init__(self, estimator: EnergyEstimator) -> None:
        self.estimator = estimator
        self._templates = tuple(estimator.template_circuits())
        self._template_keys = tuple(
            ("group", index) for index in range(len(self._templates))
        )

    # ------------------------------------------------------------------
    @property
    def num_parameters(self) -> int:
        return self.estimator.num_parameters

    @property
    def num_groups(self) -> int:
        return self.estimator.num_groups

    def build_job(self, task: GradientTask, theta: Sequence[float]) -> GradientJobSpec:
        return GradientJobSpec(
            ParameterSweep(
                self._templates,
                shifted_theta_matrix(theta, [task.parameter_index]),
                label=task,
            ),
            self._template_keys,
        )

    def gradient_from_counts(self, task: GradientTask, counts: Sequence[Counts]) -> float:
        groups = self.estimator.num_groups
        if len(counts) != 2 * groups:
            raise ValueError(
                f"expected {2 * groups} Counts objects (forward+backward), got {len(counts)}"
            )
        energy_forward = self.estimator.energy_from_counts(counts[:groups])
        energy_backward = self.estimator.energy_from_counts(counts[groups:])
        return gradient_from_energies(energy_forward, energy_backward)

    def exact_loss(self, theta: Sequence[float]) -> float:
        return self.estimator.exact_energy(theta)

    def exact_losses(self, thetas: Sequence[Sequence[float]]) -> list[float]:
        return self.estimator.exact_energy(np.asarray(thetas, dtype=float)).tolist()


class QnnObjective(VQAObjective):
    """QNN objective: mean squared error of ``<Z_0>`` against +/-1 labels."""

    def __init__(self, problem: QNNProblem) -> None:
        self.problem = problem

    # ------------------------------------------------------------------
    @property
    def num_parameters(self) -> int:
        return self.problem.num_parameters

    def _estimator(self, task: GradientTask) -> EnergyEstimator:
        if task.data_index is None:
            raise ValueError("QNN tasks must carry a data_index")
        return self.problem.estimator_for(task.data_index)

    def build_job(self, task: GradientTask, theta: Sequence[float]) -> GradientJobSpec:
        estimator = self._estimator(task)
        shifted = shifted_theta_matrix(theta, [task.parameter_index])
        keys = tuple(
            (task.data_index, "group", index) for index in range(estimator.num_groups)
        )
        return GradientJobSpec(
            ParameterSweep(
                estimator.template_circuits(),
                np.vstack([np.asarray(theta, dtype=float), shifted]),
                label=task,
            ),
            keys,
        )

    def gradient_from_counts(self, task: GradientTask, counts: Sequence[Counts]) -> float:
        estimator = self._estimator(task)
        groups = estimator.num_groups
        if len(counts) != 3 * groups:
            raise ValueError(
                f"expected {3 * groups} Counts objects (centre+forward+backward), "
                f"got {len(counts)}"
            )
        prediction = estimator.energy_from_counts(counts[:groups])
        forward = estimator.energy_from_counts(counts[groups : 2 * groups])
        backward = estimator.energy_from_counts(counts[2 * groups :])
        inner = gradient_from_energies(forward, backward)
        label = self.problem.dataset.labels[task.data_index]
        return 2.0 * (prediction - label) * inner

    def exact_loss(self, theta: Sequence[float]) -> float:
        return self.problem.dataset_loss(theta)
