"""Pluggable scheduling policies: who runs next, and on which device.

A :class:`SchedulingPolicy` answers the three questions a multi-tenant cloud
scheduler faces:

* **admission** — when a job reaches a device, does it enter the waiting
  list at all (:meth:`SchedulingPolicy.admit`; the default replicates the
  fixed background-job cap, :class:`BackpressurePolicy` sheds load smoothly
  against queue depth instead),
* **ordering** — when a device frees up, which waiting job starts
  (:meth:`SchedulingPolicy.next_job`), and
* **placement** — when a job arrives without a pinned device, where it goes
  (:meth:`SchedulingPolicy.select_device`).

All decisions are deterministic functions of queue state: ties break by
arrival order (ordering) or device name (placement), never by RNG or dict
iteration accidents, so policy sweeps are exactly reproducible.

:class:`StatisticalQueuePolicy` is the odd one out: it is the pre-kernel
closed-form queue model (lognormal congestion wait against the device's
``free_at``), kept as the :class:`~repro.cloud.provider.CloudProvider`
default so every seeded history recorded before the scheduler existed stays
bit-exact.  It never touches the event kernel.  (It lives in
:mod:`repro.cloud.queueing` next to the model it wraps, so the ``cloud``
layer never imports ``sched``; it is re-exported here as part of the policy
family.)
"""

from __future__ import annotations

import math
import zlib
from typing import Mapping, Sequence

from ..cloud.queueing import StatisticalQueuePolicy
from .queues import DeviceServiceQueue, SchedJob

__all__ = [
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
]


def _shed_hash(job_id: int) -> float:
    """Deterministic uniform-ish value in [0, 1) from a job id.

    Knuth's multiplicative hash: consecutive job ids (the common case — the
    scheduler assigns them monotonically) scatter across the unit interval,
    so fractional shedding drops an unbiased sample of a burst rather than a
    contiguous run of it, while staying a pure function of the id — two runs
    shed exactly the same jobs.
    """
    return ((job_id * 2654435761) & 0xFFFFFFFF) / 4294967296.0


class SchedulingPolicy:
    """Base policy: capped admission, FIFO ordering, least-backlog placement."""

    name = "base"

    def admit(
        self,
        job: SchedJob,
        queue: DeviceServiceQueue,
        now: float,
    ) -> bool:
        """Whether ``job`` may join ``queue.waiting`` (False = rejected).

        The default is the classic bounded queue: background jobs bounce off
        the device's ``max_queue_length`` cap, foreground (EQC) jobs always
        enter.  Policies may also annotate the job here (e.g.
        :class:`DeadlinePolicy` stamps ``job.deadline``).
        """
        return (
            job.foreground
            or queue.max_queue_length is None
            or len(queue.waiting) < queue.max_queue_length
        )

    def next_job(
        self,
        waiting: Sequence[SchedJob],
        queue: DeviceServiceQueue,
        now: float,
    ) -> int:
        """Index into ``waiting`` (arrival-ordered) of the job to start."""
        return 0

    def select_device(
        self,
        job: SchedJob,
        queues: Mapping[str, DeviceServiceQueue],
        now: float,
    ) -> str:
        """Target device for a job (pinned jobs are returned as-is)."""
        if job.device_name is not None:
            return job.device_name
        return min(
            queues.values(), key=lambda q: (q.backlog_seconds(now), q.name)
        ).name

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class FifoPolicy(SchedulingPolicy):
    """First come, first served — the baseline every cloud queue starts as."""

    name = "fifo"


class PriorityPolicy(SchedulingPolicy):
    """Highest :attr:`SchedJob.priority` first; FIFO among equals."""

    name = "priority"

    def next_job(self, waiting, queue, now):
        best = 0
        best_priority = waiting[0].priority
        for i in range(1, len(waiting)):
            p = waiting[i].priority
            if p > best_priority:
                best, best_priority = i, p
        return best


class FairSharePolicy(SchedulingPolicy):
    """Serve the tenant with the least accumulated device time.

    A tenant that floods the queue accrues service quickly and yields to
    light tenants, which bounds the latency a sparse tenant pays under a
    storm — the separation ``tests/test_sched`` pins against FIFO.
    """

    name = "fair_share"

    def next_job(self, waiting, queue, now):
        given = queue.service_given
        get = given.get
        best = 0
        best_given = get(waiting[0].tenant, 0.0)
        for i in range(1, len(waiting)):
            g = get(waiting[i].tenant, 0.0)
            if g < best_given:
                best, best_given = i, g
        return best


class LeastLoadedPolicy(SchedulingPolicy):
    """Place unpinned jobs on the device with the smallest backlog."""

    name = "least_loaded"


class CalibrationAwarePolicy(SchedulingPolicy):
    """Place unpinned jobs on the freshest-calibrated available device.

    Devices inside a calibration window are penalized by their time until
    reopening; among open devices the one with the youngest calibration (the
    best expected ``PCorrect``, per the paper's Fig. 4 freshness effect) wins.
    """

    name = "calibration_aware"

    def select_device(self, job, queues, now):
        if job.device_name is not None:
            return job.device_name

        def key(q: DeviceServiceQueue):
            reopen = max(0.0, q.downtime_until - float(now))
            visible = max(float(now), q.downtime_until)
            return (reopen, q.qpu.hours_since_calibration(visible), q.name)

        return min(queues.values(), key=key).name


class BackpressurePolicy(SchedulingPolicy):
    """Shed background load smoothly against queue depth (CodaLab-style).

    Instead of a hard cliff at the admission cap, the gate opens fully below
    ``low_watermark`` waiting jobs, closes fully at ``high_watermark``, and
    sheds a deterministic fraction of arrivals in between (the fill fraction,
    compared against a multiplicative hash of the job id — no RNG, so two
    runs shed identical jobs).  Early shedding keeps queues short: what *is*
    admitted waits far less, and foreground jobs — always admitted — see a
    near-empty device instead of a saturated one.  The hard cap still holds
    as a final backstop.  Ordering stays FIFO.
    """

    name = "backpressure"

    def __init__(self, low_watermark: int = 8, high_watermark: int = 24) -> None:
        if not 0 <= low_watermark < high_watermark:
            raise ValueError("need 0 <= low_watermark < high_watermark")
        self.low_watermark = int(low_watermark)
        self.high_watermark = int(high_watermark)

    def admit(self, job, queue, now):
        if job.foreground:
            return True
        depth = len(queue.waiting)
        cap = queue.max_queue_length
        if cap is not None and depth >= cap:
            return False
        if depth < self.low_watermark:
            return True
        if depth >= self.high_watermark:
            return False
        fill = (depth - self.low_watermark) / (
            self.high_watermark - self.low_watermark
        )
        return _shed_hash(job.job_id) >= fill

    def __repr__(self) -> str:
        return (
            f"BackpressurePolicy(low={self.low_watermark}, "
            f"high={self.high_watermark})"
        )


class DeadlinePolicy(SchedulingPolicy):
    """Earliest-deadline-first with per-tenant deadline tiers.

    Admission stamps every job with an absolute deadline: foreground jobs
    get a tight slack (EQC training epochs are latency-critical), background
    tenants land in one of ``tier_slacks`` by a stable hash of their name —
    a fixed community mix of interactive, batch, and bulk users.  When the
    device frees up, the waiting job with the earliest deadline starts, so
    interactive work overtakes bulk work exactly when it matters and the
    bulk tier absorbs the queueing.  Admission keeps the default cap.
    """

    name = "deadline"

    def __init__(
        self,
        foreground_slack: float = 600.0,
        tier_slacks: Sequence[float] = (900.0, 3600.0, 7200.0),
    ) -> None:
        tier_slacks = tuple(float(s) for s in tier_slacks)
        if not tier_slacks:
            raise ValueError("tier_slacks must name at least one tier")
        slacks = [("foreground_slack", float(foreground_slack))]
        slacks += [(f"tier_slacks[{i}]", s) for i, s in enumerate(tier_slacks)]
        for name, value in slacks:
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive (got {value!r})")
        self.foreground_slack = float(foreground_slack)
        self.tier_slacks = tier_slacks
        #: tenant name -> its tier's slack (the hash is stable, so memoized).
        self._tenant_slack: dict[str, float] = {}

    def slack_for(self, job: SchedJob) -> float:
        if job.foreground:
            return self.foreground_slack
        tenant = job.tenant
        slack = self._tenant_slack.get(tenant)
        if slack is None:
            tier = zlib.crc32(tenant.encode()) % len(self.tier_slacks)
            slack = self._tenant_slack[tenant] = self.tier_slacks[tier]
        return slack

    def admit(self, job, queue, now):
        if not super().admit(job, queue, now):
            return False
        if job.deadline is None:
            job.deadline = float(now) + self.slack_for(job)
        return True

    def next_job(self, waiting, queue, now):
        best = 0
        first = waiting[0].deadline
        best_deadline = first if first is not None else float("inf")
        for i in range(1, len(waiting)):
            d = waiting[i].deadline
            if d is None:
                d = float("inf")
            if d < best_deadline:
                best, best_deadline = i, d
        return best

    def __repr__(self) -> str:
        return (
            f"DeadlinePolicy(foreground={self.foreground_slack}, "
            f"tiers={self.tier_slacks})"
        )


POLICY_REGISTRY: dict[str, type[SchedulingPolicy]] = {
    policy.name: policy
    for policy in (
        FifoPolicy,
        PriorityPolicy,
        FairSharePolicy,
        LeastLoadedPolicy,
        CalibrationAwarePolicy,
        BackpressurePolicy,
        DeadlinePolicy,
    )
}


def resolve_policy(policy: "SchedulingPolicy | str | None") -> SchedulingPolicy:
    """Normalize a policy argument (instance, registry name, or ``None``)."""
    if policy is None:
        return FifoPolicy()
    if isinstance(policy, SchedulingPolicy):
        return policy
    try:
        return POLICY_REGISTRY[policy]()
    except KeyError:
        raise ValueError(
            f"unknown scheduling policy {policy!r}; "
            f"known: {sorted(POLICY_REGISTRY)}"
        ) from None
