"""Cloud job records."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from ..simulator.result import ExecutionResult

__all__ = ["JobStatus", "CloudJob"]


class JobStatus(str, Enum):
    """Lifecycle of a cloud job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


@dataclass
class CloudJob:
    """One submission to a device: a batch of circuits with shared shots.

    Attributes:
        job_id: unique id assigned by the provider.
        device_name: backend the job targets.
        num_circuits: number of circuits in the batch.
        shots: shots per circuit.
        submit_time: simulation time the job entered the queue.
        start_time: simulation time execution began.
        finish_time: simulation time all results were available.
        results: one :class:`ExecutionResult` per circuit.  Timing and the
            calibration-age and drift metadata are final at submit; reading
            ``results`` first resolves the physics half the provider may
            still hold parked (the ``success_probability`` metadata and the
            counts).
        attempts: service attempts consumed (1 without fault injection).
        error: short failure description when ``status`` is ``FAILED``.
    """

    job_id: int
    device_name: str
    num_circuits: int
    shots: int
    submit_time: float
    start_time: float = 0.0
    finish_time: float = 0.0
    status: JobStatus = JobStatus.QUEUED
    attempts: int = 1
    error: str = ""
    #: The provider's resolve hook and the result objects it fills in place.
    resolve: Callable[[], None] | None = field(default=None, repr=False)
    parked_results: list[ExecutionResult] = field(default_factory=list, repr=False)

    @property
    def parked(self) -> bool:
        """True while the provider still holds the physics half (counts fill
        in batch order, so the last result tells)."""
        results = self.parked_results
        return bool(results) and results[-1].counts is None

    @property
    def results(self) -> list[ExecutionResult]:
        if self.parked:
            self.resolve()  # the whole wave
        return self.parked_results

    @property
    def queue_seconds(self) -> float:
        """Time spent waiting in the device queue."""
        return max(0.0, self.start_time - self.submit_time)

    @property
    def execution_seconds(self) -> float:
        """Time spent executing on the device."""
        return max(0.0, self.finish_time - self.start_time)

    @property
    def turnaround_seconds(self) -> float:
        """Submission-to-completion latency."""
        return max(0.0, self.finish_time - self.submit_time)
