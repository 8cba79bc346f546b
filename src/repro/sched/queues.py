"""Per-device service queues: capacity-1 devices with calibration downtime.

One :class:`DeviceServiceQueue` models what one shared cloud QPU actually is:
a single serial resource that every tenant's jobs funnel through.  Jobs wait
in an arrival-ordered list; whenever the device is free (not serving, not in a
calibration window), the active :class:`~repro.sched.policies.SchedulingPolicy`
picks which waiting job runs next.  Service is capacity-1 and non-preemptive —
a calibration window that opens mid-job lets the job finish, then holds the
queue shut until the window closes.

Calibration downtime is driven by the same :mod:`repro.noise.drift` physics
that degrades circuit fidelity: at every calibration boundary the device goes
down for ``base downtime x drift factor at the end of the previous cycle`` —
a device that drifted badly needs a longer recalibration, which is another
channel through which device weather shapes tenant-visible latency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from .._fields import require
from ..cloud.clock import SECONDS_PER_HOUR
from ..cloud.queueing import QueueModel
from ..devices.qpu import QPU, job_slot_circuit_seconds
from ..telemetry import TELEMETRY as _telemetry
from .kernel import Event, EventKernel

if TYPE_CHECKING:  # pragma: no cover - circular only for type checkers
    from .policies import SchedulingPolicy

__all__ = ["SchedJob", "DeviceServiceQueue", "EVENT_PRIORITY"]

#: Tie-break priorities for simultaneous events: a calibration window opens
#: before a completion frees the device, completions free the device before
#: new arrivals see it, and wake-ups run last.
EVENT_PRIORITY = {
    "downtime": -1,
    "service_complete": 0,
    "arrival": 1,
    "wakeup": 2,
}

#: Runs a job's physics at its service start time, returns elapsed seconds.
ServiceFn = Callable[[float], float]


@dataclass(eq=False, slots=True)
class SchedJob:
    """One unit of device work inside the scheduler (EQC or tenant).

    The job doubles as the *handle* callers hold: ``start_time`` and
    ``finish_time`` are populated as the kernel simulates it, and ``done``
    flips once the completion event has fired.  Handles compare (and hash)
    by identity: two jobs with equal fields are still two jobs.

    Attributes:
        job_id: scheduler-assigned id (monotone, deterministic).
        tenant: owning tenant ("eqc" for foreground training jobs).
        device_name: the device the job is pinned to (every submission
            names one, as every EQC client is pinned to its device).
        arrival_time: simulation time the job enters the system.
        num_circuits: batch size (drives the default service duration).
        foreground: foreground jobs (EQC training) are always admitted;
            background tenant jobs are rejected when the device queue is at
            its admission-control cap.
        service: optional physics callback; called once with the service
            start time, must return the elapsed device seconds.  Tenant jobs
            leave this ``None`` and get the device-clock default.
        deadline: absolute completion target (seconds of simulated time),
            assigned by deadline-aware policies at admission; ``None`` under
            every other policy.
        arrival_event: the pending arrival of a directly submitted job, so
            :meth:`CloudScheduler.run_until_complete` can withdraw it.
    """

    job_id: int
    tenant: str
    device_name: str | None = None
    arrival_time: float = 0.0
    num_circuits: int = 2
    foreground: bool = False
    service: ServiceFn | None = None
    start_time: float | None = None
    finish_time: float | None = None
    service_seconds: float = 0.0
    rejected: bool = False
    deadline: float | None = None
    arrival_event: Event | None = field(default=None, repr=False)

    @property
    def done(self) -> bool:
        return self.finish_time is not None

    @property
    def wait_seconds(self) -> float:
        """Arrival-to-service latency (0 until the job starts)."""
        if self.start_time is None:
            return 0.0
        return max(0.0, self.start_time - self.arrival_time)

    @property
    def turnaround_seconds(self) -> float:
        if self.finish_time is None:
            return 0.0
        return max(0.0, self.finish_time - self.arrival_time)


@dataclass
class DowntimeWindow:
    """One calibration outage: [start, start + duration)."""

    start: float
    duration: float

    @property
    def end(self) -> float:
        return self.start + self.duration


class DeviceServiceQueue:
    """The kernel-side state of one device: waiting jobs, service, downtime."""

    def __init__(
        self,
        kernel: EventKernel,
        qpu: QPU,
        queue_model: QueueModel,
        policy: "SchedulingPolicy",
        downtime_base_seconds: float = 0.0,
        max_queue_length: int | None = None,
    ) -> None:
        self.kernel = kernel
        self.qpu = qpu
        self.name = qpu.name
        self.queue_model = queue_model
        self.policy = policy
        self.downtime_base_seconds = float(downtime_base_seconds)
        #: Admission-control cap on *background* jobs: a tenant arrival is
        #: rejected when the waiting list is this long.  Without a cap an
        #: overloaded device (offered load > 1) grows its backlog without
        #: bound and foreground latency diverges; real clouds bound the
        #: queue, so the simulation does too.  Foreground jobs always enter.
        #: The check itself lives in :meth:`SchedulingPolicy.admit`, so
        #: policies like backpressure can substitute their own gate.
        self.max_queue_length = max_queue_length

        self.waiting: list[SchedJob] = []
        self.in_service: SchedJob | None = None
        #: Device-local timeline: when the current/last service ends.
        self.free_at = 0.0
        #: End of the latest calibration window (0 when never down).
        self.downtime_until = 0.0
        self.downtime_windows: list[DowntimeWindow] = []
        #: Injected outage windows (fault layer), kept apart from the
        #: physics-driven calibration windows for accounting.
        self.outage_windows: list[DowntimeWindow] = []

        self.completed: list[SchedJob] = []
        self.jobs_rejected = 0
        self.busy_seconds = 0.0
        #: Accumulated service per tenant (what fair-share policies consume).
        self.service_given: dict[str, float] = {}
        self._wakeup: Event | None = None
        self._service_event: Event | None = None

    # ------------------------------------------------------------------
    @property
    def queue_length(self) -> int:
        return len(self.waiting)

    @property
    def dead_since(self) -> float | None:
        """Start of the permanent outage that took the device down for good
        (``None`` while the device can still come back)."""
        if math.isfinite(self.downtime_until):
            return None
        return next(
            w.start for w in self.outage_windows if not math.isfinite(w.duration)
        )

    # ------------------------------------------------------------------
    # calibration downtime lifecycle
    # ------------------------------------------------------------------
    def schedule_calibration_cycle(self) -> None:
        """Arm the first calibration-window event (cycle-1 boundary)."""
        if self.downtime_base_seconds <= 0:
            return
        period = self.qpu.spec.calibration_period_hours * SECONDS_PER_HOUR
        self.kernel.schedule(
            period,
            self._begin_downtime,
            priority=EVENT_PRIORITY["downtime"],
            kind="downtime",
        )

    def _begin_downtime(self, now: float) -> None:
        # Recalibration takes longer the further the device drifted during
        # the cycle that just ended (sampled one second before the boundary).
        factor = self.qpu.drift_factor(max(0.0, now - 1.0))
        duration = self.downtime_base_seconds * factor
        self.downtime_until = max(self.downtime_until, now + duration)
        self.downtime_windows.append(DowntimeWindow(start=now, duration=duration))
        if _telemetry.enabled:
            # Downtime gets its own lane: calibration windows overlap jobs
            # that were already in service (non-preemptive queue), which
            # would break span nesting on the device lane.
            _telemetry.tracer.add_sim_span(
                "calibration",
                "sched.downtime",
                f"{self.name} downtime",
                now,
                duration,
                args={"drift_factor": round(factor, 4)},
            )

        period = self.qpu.spec.calibration_period_hours * SECONDS_PER_HOUR
        self.kernel.schedule(
            now + period,
            self._begin_downtime,
            priority=EVENT_PRIORITY["downtime"],
            kind="downtime",
        )
        if (
            self.in_service is None
            and self.waiting
            and math.isfinite(self.downtime_until)
        ):
            self._ensure_wakeup(self.downtime_until)

    # ------------------------------------------------------------------
    # injected outages (fault layer)
    # ------------------------------------------------------------------
    def inject_outage(
        self, start: float, duration: float = float("inf"), permanent: bool = False
    ) -> None:
        """Arm one injected outage window beginning at ``start``.

        ``permanent=True`` (or an infinite duration) takes the device down
        for good.  Unlike calibration downtime, an outage *preempts*: a job
        in service when the window opens is cut and requeued at the head of
        the waiting list, to restart from scratch once the device returns.
        """
        require(self, "start", start, low=0)
        if duration != math.inf:  # inf is a permanent outage
            require(self, "duration", duration, low=0, open_low=True)
        if permanent:
            duration = float("inf")
        self.kernel.schedule(
            float(start),
            lambda now, d=float(duration): self._begin_outage(now, d),
            priority=EVENT_PRIORITY["downtime"],
            kind="outage",
        )

    def _begin_outage(self, now: float, duration: float) -> None:
        self.downtime_until = max(self.downtime_until, now + duration)
        self.outage_windows.append(DowntimeWindow(start=now, duration=duration))
        preempted = self.in_service
        if preempted is not None:
            # Cut the running job: cancel its completion, rewind its state,
            # and requeue it at the head so it restarts first on recovery.
            if self._service_event is not None:
                self._service_event.cancel()
                self._service_event = None
            preempted.start_time = None
            preempted.service_seconds = 0.0
            self.waiting.insert(0, preempted)
            self.in_service = None
            self.free_at = now
        if _telemetry.enabled:
            _telemetry.registry.counter("faults.outages", device=self.name).inc()
            _telemetry.tracer.add_sim_span(
                "outage",
                "sched.downtime",
                f"{self.name} downtime",
                now,
                duration if math.isfinite(duration) else 0.0,
                args={"permanent": not math.isfinite(duration)},
            )
        if (
            self.waiting
            and self.in_service is None
            and math.isfinite(self.downtime_until)
        ):
            self._ensure_wakeup(self.downtime_until)

    # ------------------------------------------------------------------
    # job lifecycle
    # ------------------------------------------------------------------
    def on_arrival(self, job: SchedJob, now: float) -> None:
        """Admit a job to the waiting list and start it if the device is free."""
        if not self.policy.admit(job, self, now):
            job.rejected = True
            self.jobs_rejected += 1
            if _telemetry.enabled:
                _telemetry.registry.counter(
                    "sched.jobs_rejected", device=self.name
                ).inc()
            return
        self.waiting.append(job)
        if self.in_service is None:
            # A late-replayed submission (arrival behind the device's local
            # timeline) cannot rewind committed work: it queues from free_at.
            free_at = self.free_at
            self._try_start(now if now >= free_at else free_at)

    def withdraw(self, job: SchedJob) -> None:
        """Drop a job from the waiting list (its submitter gave up on it)."""
        if job in self.waiting:
            self.waiting.remove(job)

    def _try_start(self, now: float) -> None:
        waiting = self.waiting
        if self.in_service is not None or not waiting:
            return
        downtime_until = self.downtime_until
        if now < downtime_until:
            if math.isfinite(downtime_until):
                self._ensure_wakeup(downtime_until)
            return
        job = waiting.pop(self.policy.next_job(waiting, self, now))
        self.in_service = job
        job.start_time = now
        if job.service is not None:
            duration = float(job.service(now))
        else:
            # Default tenant physics: the device's drift-aware job clock, one
            # half-slot per circuit (a full slot covers a forward/backward pair).
            slot = job_slot_circuit_seconds(self.qpu.job_duration_seconds(now))
            circuits = job.num_circuits
            duration = slot * (circuits if circuits > 1 else 1)
        job.service_seconds = duration
        self.free_at = free_at = now + duration
        # The completion reads ``in_service``: one job runs at a time, and an
        # outage that preempts it cancels this event before clearing the slot.
        self._service_event = self.kernel.schedule(
            free_at,
            self._complete,
            EVENT_PRIORITY["service_complete"],
            "service_complete",
        )

    def _complete(self, now: float) -> None:
        job = self.in_service
        job.finish_time = now
        # The physics ran; completed handles must not pin the caller's closure.
        job.service = None
        self.in_service = None
        self._service_event = None
        self.completed.append(job)
        seconds = job.service_seconds
        self.busy_seconds += seconds
        given = self.service_given
        given[job.tenant] = given.get(job.tenant, 0.0) + seconds
        if _telemetry.enabled:
            self._record_completion(job)
        self._try_start(now)

    def _record_completion(self, job: SchedJob) -> None:
        """Telemetry for one finished job (enabled-path only).

        Per-job, not per-event: the kernel's event loop stays untouched and
        the fleet-wide event counters are published at collection time by
        :meth:`CloudScheduler.publish` instead.
        """
        registry = _telemetry.registry
        registry.counter("sched.jobs_completed", device=self.name).inc()
        registry.histogram("sched.queue_wait_seconds").observe(job.wait_seconds)
        registry.histogram(
            "sched.queue_wait_seconds", tenant=job.tenant
        ).observe(job.wait_seconds)
        registry.gauge("sched.queue_depth", device=self.name).set(self.queue_length)
        _telemetry.tracer.add_sim_span(
            f"{job.tenant} job",
            "sched",
            self.name,
            job.start_time,
            job.service_seconds,
            args={
                "tenant": job.tenant,
                "wait_s": round(job.wait_seconds, 6),
                "circuits": job.num_circuits,
            },
        )

    # ------------------------------------------------------------------
    def _ensure_wakeup(self, when: float) -> None:
        if self._wakeup is not None and not self._wakeup.cancelled:
            if self._wakeup.time <= when:
                return
            self._wakeup.cancel()
        self._wakeup = self.kernel.schedule(
            when,
            self._on_wakeup,
            priority=EVENT_PRIORITY["wakeup"],
            kind="wakeup",
        )

    def _on_wakeup(self, now: float) -> None:
        self._wakeup = None
        self._try_start(now)

    def __repr__(self) -> str:
        return (
            f"DeviceServiceQueue({self.name!r}, waiting={self.queue_length}, "
            f"busy={self.in_service is not None}, free_at={self.free_at:.1f}s)"
        )
