"""Discrete-event simulation of the shared quantum cloud."""

from .clock import SECONDS_PER_HOUR, VirtualClock, hours, seconds_to_hours
from .job import CloudJob, JobStatus
from .provider import CloudProvider, DeviceEndpoint, UtilizationRecord
from .queueing import (
    DEFAULT_QUEUE_MODELS,
    QueueModel,
    queue_model_for,
)

__all__ = [
    "VirtualClock",
    "SECONDS_PER_HOUR",
    "hours",
    "seconds_to_hours",
    "CloudJob",
    "JobStatus",
    "QueueModel",
    "DEFAULT_QUEUE_MODELS",
    "queue_model_for",
    "CloudProvider",
    "DeviceEndpoint",
    "UtilizationRecord",
]
