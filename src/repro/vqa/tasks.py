"""VQA task decomposition (paper Section III-A).

The master node decomposes one training epoch into independent gradient
tasks, each small enough to hand to one client node:

* **VQE / QAOA** — one task per trainable parameter (the paper additionally
  notes VQE can split at the Pauli-string level; our measurement-group
  machinery realizes that inside a task, where the client runs one circuit
  per commuting group).
* **QNN** — one task per (parameter, data point) pair; the master averages
  the per-datapoint gradients for a parameter.

Tasks are handed out cyclically (Algorithm 1): parameter 0, 1, ..., m-1, then
back to 0, which is also what the convergence proof assumes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

__all__ = ["GradientTask", "CyclicTaskQueue", "vqe_task_cycle", "qnn_task_cycle"]


@dataclass(frozen=True)
class GradientTask:
    """One unit of work for a client node.

    Attributes:
        task_id: globally unique, monotonically increasing id.
        parameter_index: the parameter this task differentiates.
        data_index: for QNN tasks, the data point; ``None`` otherwise.
    """

    task_id: int
    parameter_index: int
    data_index: int | None = None

    def __post_init__(self) -> None:
        if self.task_id < 0:
            raise ValueError("task_id must be non-negative")
        if self.parameter_index < 0:
            raise ValueError("parameter_index must be non-negative")
        if self.data_index is not None and self.data_index < 0:
            raise ValueError("data_index must be non-negative")


class CyclicTaskQueue:
    """Endless cyclic task generator with epoch tracking.

    One *epoch* is one full pass over the cycle (all parameters, or all
    parameter x data-point pairs for QNN).  The queue tracks how many tasks
    have been issued and therefore how many complete epochs have been started.
    """

    def __init__(self, cycle: Sequence[tuple[int, int | None]]) -> None:
        cycle = list(cycle)
        if not cycle:
            raise ValueError("task cycle must not be empty")
        self._cycle = cycle
        self.cycle_length = len(cycle)
        self._issued = 0

    # ------------------------------------------------------------------
    @property
    def tasks_issued(self) -> int:
        return self._issued

    @property
    def epochs_started(self) -> int:
        """Number of full cycles that have begun."""
        if self._issued == 0:
            return 0
        return (self._issued - 1) // self.cycle_length + 1

    def next_task(self) -> GradientTask:
        """Issue the next task in the cycle."""
        position = self._issued % self.cycle_length
        parameter_index, data_index = self._cycle[position]
        task = GradientTask(
            task_id=self._issued,
            parameter_index=parameter_index,
            data_index=data_index,
        )
        self._issued += 1
        return task

    def epoch_of_task(self, task: GradientTask) -> int:
        """The (0-based) epoch a task belongs to."""
        return task.task_id // self.cycle_length


def vqe_task_cycle(num_parameters: int) -> CyclicTaskQueue:
    """Parameter-level decomposition for VQE and QAOA."""
    if num_parameters < 1:
        raise ValueError("num_parameters must be >= 1")
    return CyclicTaskQueue([(index, None) for index in range(num_parameters)])


def qnn_task_cycle(num_parameters: int, num_datapoints: int) -> CyclicTaskQueue:
    """(parameter, data point) decomposition for QNN training."""
    if num_parameters < 1 or num_datapoints < 1:
        raise ValueError("need at least one parameter and one data point")
    cycle = [
        (parameter, data)
        for parameter in range(num_parameters)
        for data in range(num_datapoints)
    ]
    return CyclicTaskQueue(cycle)
