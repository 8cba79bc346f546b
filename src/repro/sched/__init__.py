"""Discrete-event multi-tenant scheduling for the shared quantum cloud.

The ``sched`` layer replaces the closed-form queue-delay draws of
:mod:`repro.cloud.queueing` with an actual simulation of contention: one
event kernel (sorted-run batched admission; end to end, with queues,
policies and the tenant workload around it, ``benchmarks/e2e``'s
``sched_fleet`` runs 165k-340k events/s per policy on a 2-vCPU host, not
the bare loop's millions; the three policies that replay the first one's
tenant traffic run fastest), capacity-1 device queues with
calibration-window downtime, pluggable scheduling policies (including
backpressure shedding and EDF deadlines), a chunk-vectorized Poisson
background-tenant workload, and a policy tournament harness
(:mod:`repro.sched.tournament`) that races the policies across a
(devices x tenants x policy) grid at fleet scale.

The statistical model survives as :class:`StatisticalQueuePolicy`, the
provider's default path, keeping every pre-scheduler seeded history
bit-exact.
"""

from .kernel import Event, EventKernel
from .policies import (
    POLICY_REGISTRY,
    BackpressurePolicy,
    CalibrationAwarePolicy,
    DeadlinePolicy,
    FairSharePolicy,
    FifoPolicy,
    LeastLoadedPolicy,
    PriorityPolicy,
    SchedulingPolicy,
    StatisticalQueuePolicy,
    resolve_policy,
)
from .queues import DeviceServiceQueue, SchedJob
from .scheduler import DEFAULT_DOWNTIME_SECONDS, CloudScheduler
from .tournament import (
    CONTENTION_CONFIG,
    FULL_CONFIG,
    SMOKE_CONFIG,
    TournamentConfig,
    publish_tournament,
    run_tournament,
)
from .workload import WorkloadGenerator

__all__ = [
    "Event",
    "EventKernel",
    "SchedJob",
    "DeviceServiceQueue",
    "SchedulingPolicy",
    "FifoPolicy",
    "PriorityPolicy",
    "FairSharePolicy",
    "LeastLoadedPolicy",
    "CalibrationAwarePolicy",
    "BackpressurePolicy",
    "DeadlinePolicy",
    "StatisticalQueuePolicy",
    "POLICY_REGISTRY",
    "resolve_policy",
    "WorkloadGenerator",
    "CloudScheduler",
    "DEFAULT_DOWNTIME_SECONDS",
    "TournamentConfig",
    "SMOKE_CONFIG",
    "FULL_CONFIG",
    "CONTENTION_CONFIG",
    "run_tournament",
    "publish_tournament",
]
