"""Single-device VQA training: the paper's per-machine baselines.

This is the workflow EQC replaces: one QPU, sequential stochastic gradient
descent, every forward/backward circuit pair waiting in that device's queue.
Its history shows both pathologies the paper documents — wall-clock times of
days to months on slow or congested devices, and device-specific bias/drift
pulling the learned parameters away from the ideal solution.

A single-device run *is* a one-client, unweighted EQC master: with one job
in flight every gradient is fresh (staleness 0) and every weight is 1.0, so
the baseline and the ensemble it is compared against run the same loop.
Runs are terminated (like the paper's Manhattan/Santiago/Toronto experiments)
at the first epoch boundary past ``max_wall_hours`` of simulated time.
"""

from __future__ import annotations

from .._fields import require
from ..cloud.provider import CloudProvider
from ..cloud.queueing import QueueModel
from ..devices.catalog import build_qpu
from ..vqa.optimizer import AsgdRule
from ..vqa.tasks import CyclicTaskQueue, vqe_task_cycle
from ..core.client import EQCClientNode
from ..core.history import TrainingHistory
from ..core.master import EQCMasterNode
from ..core.objective import VQAObjective
from ..core.weighting import WeightingConfig

__all__ = ["SingleDeviceTrainer", "DEFAULT_TERMINATION_HOURS"]

#: The paper terminates single-device experiments after two weeks of training.
DEFAULT_TERMINATION_HOURS = 14 * 24.0


class SingleDeviceTrainer:
    """Sequential SGD training of a VQA on one (noisy, queued) device."""

    def __init__(
        self,
        objective: VQAObjective,
        device_name: str,
        shots: int = 8192,
        learning_rate: float = 0.1,
        seed: int = 0,
        max_wall_hours: float = DEFAULT_TERMINATION_HOURS,
        queue_model: QueueModel | None = None,
    ) -> None:
        self.objective = objective
        self.qpu = build_qpu(device_name)
        queue_models = {self.qpu.name: queue_model} if queue_model is not None else None
        # Execution flows through the device endpoint's NoisyBackend, like
        # every other trainer.
        self.provider = CloudProvider(
            [self.qpu], queue_models=queue_models, seed=seed, shots=shots
        )
        self.client = EQCClientNode(
            objective=objective, qpu=self.qpu, provider=self.provider, shots=shots
        )
        self.rule = AsgdRule(learning_rate=learning_rate)
        require(self, "max_wall_hours", max_wall_hours, low=0.0, open_low=True)
        self.max_wall_hours = float(max_wall_hours)
        self.label = f"single[{self.qpu.name}]"

    # ------------------------------------------------------------------
    def train(
        self,
        initial_parameters,
        num_epochs: int,
        task_queue: CyclicTaskQueue | None = None,
        record_every: int = 1,
    ) -> TrainingHistory:
        """Run sequential single-device SGD for up to ``num_epochs`` epochs."""
        master = EQCMasterNode(
            objective=self.objective,
            clients=[self.client],
            task_queue=task_queue or vqe_task_cycle(self.objective.num_parameters),
            rule=self.rule,
            weighting=WeightingConfig(bounds=None),
            initial_parameters=initial_parameters,
            label=self.label,
        )
        return master.train(
            num_epochs=num_epochs,
            record_every=record_every,
            max_sim_hours=self.max_wall_hours,
        )
