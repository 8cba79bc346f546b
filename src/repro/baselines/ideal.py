"""The ideal-simulator baseline: noiseless, queueless training.

The paper's reference curve ("Ideal Solution" in Fig. 6/9/11) comes from
training the same ansatz on a noise-free simulator with 8192 shots.  This
trainer reproduces it: energies are estimated either exactly or by sampling
an ideal distribution (finite-shot noise only), there is no queue, and the
wall-clock per epoch is negligible.

Sampled execution runs on the ideal
:class:`~repro.backends.statevector.StatevectorBackend`: every parameter
step's forward/backward circuit family is one unbound
:class:`~repro.circuit.sweep.ParameterSweep`, one vectorized pass.
"""

from __future__ import annotations

import numpy as np

from .._fields import require
from ..backends.statevector import StatevectorBackend
from ..hamiltonian.expectation import EnergyEstimator
from ..vqa.gradient import exact_parameter_shift_gradient, sampled_parameter_shift_gradient
from ..vqa.optimizer import AsgdRule
from ..core.history import EpochRecord, TrainingHistory

__all__ = ["IdealTrainer"]


class IdealTrainer:
    """Sequential SGD on a noise-free simulator (finite shots optional)."""

    def __init__(
        self,
        estimator: EnergyEstimator,
        shots: int = 8192,
        learning_rate: float = 0.1,
        exact: bool = False,
        seed: int = 0,
        seconds_per_epoch: float = 30.0,
    ) -> None:
        """Args:
            estimator: the shared ansatz + Hamiltonian estimator.
            shots: shots per circuit when sampling (paper: 8192), >= 1.
            learning_rate: SGD step size (finite, > 0).
            exact: use exact expectation values instead of sampled counts.
            seed: sampling seed, an integer >= 0.
            seconds_per_epoch: nominal simulator wall time per epoch (finite,
                > 0), used only so the history has a meaningful epochs/hour.
        """
        self.estimator = estimator
        self.shots = int(require(self, "shots", shots, low=1, integer=True))
        self.rule = AsgdRule(learning_rate=learning_rate)
        self.exact = bool(exact)
        self.rng = np.random.default_rng(require(self, "seed", seed, low=0, integer=True))
        require(self, "seconds_per_epoch", seconds_per_epoch, low=0.0, open_low=True)
        self.seconds_per_epoch = float(seconds_per_epoch)
        self.backend = StatevectorBackend()
        self.label = "ideal_simulator"

    # ------------------------------------------------------------------
    def train(
        self,
        initial_parameters,
        num_epochs: int,
        record_every: int = 1,
    ) -> TrainingHistory:
        """Run noiseless sequential SGD for ``num_epochs`` epochs."""
        if num_epochs < 1:
            raise ValueError("num_epochs must be >= 1")
        theta = np.asarray(initial_parameters, dtype=float).copy()
        history = TrainingHistory(
            label=self.label,
            device_names=("ideal",),
            metadata={
                "learning_rate": self.rule.learning_rate,
                "shots": self.shots,
                "backend": self.backend.name if not self.exact else "exact",
            },
        )
        num_parameters = theta.size
        recorded: list[tuple[int, tuple[float, ...]]] = []
        for epoch in range(1, num_epochs + 1):
            for index in range(num_parameters):
                if self.exact:
                    gradient = exact_parameter_shift_gradient(self.estimator, theta, index)
                else:
                    # Both shift evaluations run as one backend batch.
                    gradient = sampled_parameter_shift_gradient(
                        self.estimator,
                        theta,
                        self.backend,
                        shots=self.shots,
                        rng=self.rng,
                        parameter_indices=[index],
                    )[0]
                theta[index] = self.rule.step(theta[index], gradient)
            if epoch % record_every == 0 or epoch == num_epochs:
                recorded.append((epoch, tuple(float(v) for v in theta)))
        losses = self.estimator.exact_energy(np.array([row for _, row in recorded]))
        for (epoch, row), loss in zip(recorded, losses.tolist(), strict=True):
            history.add(EpochRecord(epoch, epoch * self.seconds_per_epoch / 3600.0, loss, row))
        history.total_updates = num_epochs * num_parameters
        return history
