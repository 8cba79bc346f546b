"""The cloud scheduler facade: kernel + device queues + policy + workload.

:class:`CloudScheduler` is what the rest of the reproduction talks to.  The
:class:`~repro.cloud.provider.CloudProvider` registers its fleet here and, in
kernel mode, submits EQC jobs as :class:`~repro.sched.queues.SchedJob`
handles whose physics run inside the service-start event; background tenant
traffic from a :class:`~repro.sched.workload.WorkloadGenerator` competes in
the same per-device queues under the same
:class:`~repro.sched.policies.SchedulingPolicy`.

The provider's submit-and-wait contract is preserved by
:meth:`run_until_complete`: the kernel is advanced exactly until the handle's
completion event fires (or its device goes down for good), leaving all later
traffic pending on the heap for the next submission to consume.
"""

from __future__ import annotations

import itertools
from array import array

from .._fields import require
from ..cloud.clock import VirtualClock
from ..cloud.queueing import QueueModel
from ..devices.qpu import QPU
from ..telemetry import TELEMETRY as _telemetry
from ..telemetry.report import jains_index, sorted_percentile
from .kernel import EventKernel
from .policies import SchedulingPolicy, resolve_policy
from .queues import EVENT_PRIORITY, DeviceServiceQueue, SchedJob, ServiceFn
from .workload import WorkloadGenerator

__all__ = ["CloudScheduler"]

#: Default device outage at each calibration boundary (before drift scaling).
DEFAULT_DOWNTIME_SECONDS = 20 * 60.0

#: Default admission-control cap on background jobs waiting per device.
DEFAULT_MAX_QUEUE_LENGTH = 32

#: ``downtime_until`` of a device that a permanent outage took down.
_FOREVER = float("inf")


class CloudScheduler:
    """Discrete-event scheduler for a fleet of shared quantum devices."""

    def __init__(
        self,
        policy: SchedulingPolicy | str | None = None,
        workload: WorkloadGenerator | None = None,
        seed: int = 0,
        clock: VirtualClock | None = None,
        downtime_seconds: float = DEFAULT_DOWNTIME_SECONDS,
        max_queue_length: int | None = DEFAULT_MAX_QUEUE_LENGTH,
    ) -> None:
        require(self, "downtime_seconds", downtime_seconds, low=0.0)
        if max_queue_length is not None:
            require(self, "max_queue_length", max_queue_length, low=0, integer=True)
        self.kernel = EventKernel(clock=clock, seed=seed)
        self.policy = resolve_policy(policy)
        self.workload = workload
        self.downtime_seconds = float(downtime_seconds)
        self.max_queue_length = max_queue_length
        self.queues: dict[str, DeviceServiceQueue] = {}
        #: Next job id (monotone, deterministic); a plain C callable, since
        #: every tenant arrival draws one.
        self.next_job_id = itertools.count().__next__
        self._started = False

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.kernel.now

    @property
    def device_names(self) -> tuple[str, ...]:
        return tuple(self.queues.keys())

    # ------------------------------------------------------------------
    def register_device(self, qpu: QPU, queue_model: QueueModel) -> DeviceServiceQueue:
        """Add one device to the simulated fleet (before any submission)."""
        if self._started:
            raise RuntimeError("cannot register devices after the first submission")
        if qpu.name in self.queues:
            raise ValueError(f"device {qpu.name!r} already registered")
        queue = DeviceServiceQueue(
            kernel=self.kernel,
            qpu=qpu,
            queue_model=queue_model,
            policy=self.policy,
            downtime_base_seconds=self.downtime_seconds,
            max_queue_length=self.max_queue_length,
        )
        self.queues[qpu.name] = queue
        return queue

    def _ensure_started(self) -> None:
        """Arm calibration-downtime and tenant-arrival events exactly once."""
        if self._started:
            return
        if not self.queues:
            raise RuntimeError("no devices registered with the scheduler")
        self._started = True
        for queue in self.queues.values():
            queue.schedule_calibration_cycle()
        if self.workload is not None:
            self.workload.attach(self)

    # ------------------------------------------------------------------
    def submit(
        self,
        device_name: str,
        arrival: float = 0.0,
        tenant: str = "eqc",
        num_circuits: int = 2,
        service: ServiceFn | None = None,
        duration: float | None = None,
        foreground: bool = True,
    ) -> SchedJob:
        """Enqueue one job on its device; returns its handle (not yet simulated).

        Exactly one of ``service`` (physics callback) / ``duration`` (fixed
        seconds) may be given; with neither, the device's drift-aware job
        clock prices the batch.  Directly submitted jobs are *foreground*
        (never rejected by admission control) unless stated otherwise.
        """
        self._ensure_started()
        require(self, "arrival", arrival, low=0.0)
        require(self, "num_circuits", num_circuits, low=1, integer=True)
        if service is not None and duration is not None:
            raise ValueError("pass either service or duration, not both")
        if duration is not None:
            fixed = float(require(self, "duration", duration, low=0.0, open_low=True))
            service = lambda _start, _d=fixed: _d  # noqa: E731
        if device_name not in self.queues:
            raise KeyError(f"unknown device {device_name!r}")
        job = SchedJob(
            job_id=self.next_job_id(),
            tenant=tenant,
            device_name=device_name,
            arrival_time=float(arrival),
            num_circuits=int(num_circuits),
            foreground=bool(foreground),
            service=service,
        )
        job.arrival_event = self.kernel.schedule(
            job.arrival_time,
            lambda now, job=job: self._admit(job, now),
            priority=EVENT_PRIORITY["arrival"],
            kind="arrival",
        )
        return job

    def _admit(self, job: SchedJob, now: float) -> None:
        target = self.policy.select_device(job, self.queues, now)
        self.queues[target].on_arrival(job, now)

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def inject_outage(
        self,
        device_name: str,
        start: float,
        duration: float = float("inf"),
        permanent: bool = False,
    ) -> None:
        """Arm one injected outage on a registered device.

        The outage preempts any job in service when it opens (the job is
        requeued at the head of the waiting list) and holds the device shut
        until the window closes — forever, when permanent.
        """
        if device_name not in self.queues:
            raise KeyError(f"unknown device {device_name!r}")
        self.queues[device_name].inject_outage(
            start, duration=duration, permanent=permanent
        )

    def apply_fault_plan(self, plan) -> None:
        """Arm every outage window of a :class:`~repro.faults.FaultPlan`.

        Only the outage windows live in the kernel (they preempt and hold
        the device queue); a plan's transient failures, result delays and
        retries are drawn by the provider's submit loop, which runs the same
        way on this clock as on the statistical one.
        """
        for window in plan.outages:
            self.inject_outage(
                window.device,
                window.start,
                duration=window.duration,
                permanent=window.permanent,
            )

    # ------------------------------------------------------------------
    def run_until_complete(self, job: SchedJob) -> SchedJob:
        """Advance the kernel exactly until ``job``'s completion event fires.

        A job on a device that is (or goes) permanently down can never
        complete: the kernel stops at the event that took the device down —
        not after spinning through tenant traffic to ``max_events`` — and
        the job is withdrawn and returned with ``done`` still False.
        """
        queue = self.queues[job.device_name]
        self.kernel.run_until(
            lambda: job.finish_time is not None or queue.downtime_until == _FOREVER
        )
        if not job.done:
            job.arrival_event.cancel()
            queue.withdraw(job)
        return job

    def run_until_time(self, timestamp: float) -> int:
        """Process all pending events up to ``timestamp``; returns the count."""
        self._ensure_started()
        return self.kernel.run_until_time(timestamp)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def metrics(self) -> dict[str, object]:
        """Kernel and per-device counters for benchmarks and experiments."""
        per_device = {
            name: {
                "jobs_completed": len(queue.completed_ids),
                "jobs_rejected": queue.jobs_rejected,
                "waiting": queue.queue_length,
                "busy_seconds": queue.busy_seconds,
                "downtime_windows": len(queue.downtime_windows),
                "downtime_seconds": sum(w.duration for w in queue.downtime_windows),
                "outage_windows": len(queue.outage_windows),
            }
            for name, queue in self.queues.items()
        }
        return {
            "policy": self.policy.name,
            "events_processed": self.kernel.events_processed,
            "simulated_seconds": self.kernel.now,
            "devices": per_device,
            "slo": self.slo_metrics(),
        }

    def slo_metrics(self) -> dict[str, float]:
        """Fleet-wide latency percentiles and tenant fairness.

        Queue-wait percentiles cover every completed job (foreground and
        tenant); the fairness index is Jain's index over the device seconds
        each tenant received, so 1.0 means perfectly even service.  The
        waits are the queues' columns: devices in registration order, each
        in completion order.
        """
        waits = array("d")
        for queue in self.queues.values():
            waits.extend(queue.waits)
        ordered = sorted(waits)
        rejected = sum(queue.jobs_rejected for queue in self.queues.values())
        offered = len(waits) + rejected
        service_by_tenant: dict[str, float] = {}
        for queue in self.queues.values():
            for tenant, seconds in queue.service_given.items():
                service_by_tenant[tenant] = (
                    service_by_tenant.get(tenant, 0.0) + seconds
                )
        return {
            "jobs_completed": float(len(waits)),
            "queue_wait_mean": float(sum(waits) / len(waits)) if waits else 0.0,
            "queue_wait_p50": sorted_percentile(ordered, 50.0),
            "queue_wait_p99": sorted_percentile(ordered, 99.0),
            "rejected_fraction": rejected / offered if offered else 0.0,
            "tenant_fairness_jain": jains_index(list(service_by_tenant.values())),
        }

    def publish(self, registry=None, prefix: str = "sched") -> None:
        """Write kernel totals and SLO metrics into a metrics registry.

        Called at collection time (not per event) so the event loop carries
        no telemetry cost beyond the per-job hooks in the device queues.
        """
        if registry is None:
            registry = _telemetry.registry
        registry.gauge(f"{prefix}.events_processed").set(self.kernel.events_processed)
        registry.gauge(f"{prefix}.simulated_seconds").set(self.kernel.now)
        for field, value in self.slo_metrics().items():
            registry.gauge(f"{prefix}.slo.{field}").set(value)
        for name, queue in self.queues.items():
            registry.gauge(f"{prefix}.queue_depth", device=name).set(
                queue.queue_length
            )

    def __repr__(self) -> str:
        return (
            f"CloudScheduler(policy={self.policy.name!r}, "
            f"devices={len(self.queues)}, t={self.now:.1f}s)"
        )
