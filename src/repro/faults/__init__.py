"""Deterministic fault injection and the resilience machinery that absorbs it.

The paper's core claim is that an *ensemble* of cloud QPUs makes VQA training
robust to the unreliability of any single device.  This package supplies the
failure model that makes the claim testable: a declarative
:class:`FaultPlan` (outage windows, transient job-failure rates, result
timeouts, calibration blackouts) injected through seeded
per-label RNG streams, plus the mechanisms that survive it — a
:class:`RetryPolicy` with exponential backoff and deadlines, a
:class:`DeviceHealthTracker` circuit breaker, and graceful fleet-shrink
degradation in the EQC master.

With a disabled plan nothing here executes beyond one predicated branch per
hot call site, and no RNG stream is ever consumed: fault-free seeded
histories stay bit-exact.
"""

from .errors import (
    DeviceOutageError,
    FaultError,
    FleetExhaustedError,
    JobDeadlineExceeded,
    JobRetriesExhausted,
    TransientJobFailure,
)
from .health import BreakerState, BreakerTransition, DeviceHealthTracker
from .injector import FaultInjector
from .plan import FaultPlan, OutageWindow
from .retry import DEFAULT_RETRY_POLICY, RetryPolicy

__all__ = [
    "FaultPlan",
    "OutageWindow",
    "FaultInjector",
    "RetryPolicy",
    "DEFAULT_RETRY_POLICY",
    "DeviceHealthTracker",
    "BreakerState",
    "BreakerTransition",
    "FaultError",
    "TransientJobFailure",
    "JobRetriesExhausted",
    "JobDeadlineExceeded",
    "DeviceOutageError",
    "FleetExhaustedError",
]
