"""The fault-family exception hierarchy.

Every exception the resilience machinery raises carries two pieces of
context the EQC master needs to degrade gracefully instead of crashing:
``device_name`` (which endpoint failed) and ``detect_time`` (the *virtual*
timestamp at which the failure became visible to the caller — failures cost
simulated time, exactly like successful jobs cost simulated time).
"""

from __future__ import annotations

__all__ = [
    "FaultError",
    "TransientJobFailure",
    "JobRetriesExhausted",
    "JobDeadlineExceeded",
    "DeviceOutageError",
    "FleetExhaustedError",
]


class FaultError(RuntimeError):
    """Base class of every injected-fault / resilience failure."""

    def __init__(
        self,
        message: str,
        *,
        device_name: str = "",
        detect_time: float = 0.0,
    ) -> None:
        super().__init__(message)
        self.device_name = str(device_name)
        #: Virtual-clock timestamp at which the failure surfaced.
        self.detect_time = float(detect_time)
        #: The failed :class:`~repro.cloud.job.CloudJob` (status ``FAILED``,
        #: ``error`` and ``attempts`` filled in) when the provider raised this.
        self.job = None


class TransientJobFailure(FaultError):
    """One injected per-attempt failure (normally absorbed by the retry loop)."""


class JobRetriesExhausted(FaultError):
    """Every retry attempt of one job failed transiently."""

    def __init__(
        self,
        message: str,
        *,
        device_name: str = "",
        detect_time: float = 0.0,
        attempts: int = 0,
    ) -> None:
        super().__init__(message, device_name=device_name, detect_time=detect_time)
        self.attempts = int(attempts)


class JobDeadlineExceeded(FaultError):
    """A job (or its delayed results) blew through its per-job deadline."""


class DeviceOutageError(FaultError):
    """The target device is inside an outage window it will not leave."""

    def __init__(
        self,
        message: str,
        *,
        device_name: str = "",
        detect_time: float = 0.0,
        permanent: bool = True,
    ) -> None:
        super().__init__(message, device_name=device_name, detect_time=detect_time)
        self.permanent = bool(permanent)


class FleetExhaustedError(FaultError):
    """Too few live devices remain to keep training (``min_live_devices``)."""
