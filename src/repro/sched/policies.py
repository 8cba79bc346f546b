"""Pluggable scheduling policies: which job enters a queue, and which runs next.

A :class:`SchedulingPolicy` answers the two questions a multi-tenant cloud
scheduler faces once a job reaches its device (every job is pinned to one,
as every EQC client is pinned to its device):

* **admission** — does a job the queue has room for enter the waiting list
  (:meth:`SchedulingPolicy.admit`; the default admits it,
  :class:`BackpressurePolicy` sheds load smoothly against queue depth; the
  fixed background-job cap is the queue's own check, made first), and
* **ordering** — when a device frees up, which waiting job starts
  (:meth:`SchedulingPolicy.next_job`).

All decisions are deterministic functions of queue state: ties break by
arrival order, never by RNG or dict iteration accidents, so policy sweeps
are exactly reproducible.  The registry holds the four policies the
tournament races: ``fifo``, ``fair_share``, ``backpressure`` and
``deadline``.
"""

from __future__ import annotations

import zlib
from typing import Mapping, Sequence

from .._fields import require
from .queues import DeviceServiceQueue, SchedJob

__all__ = [
    "SchedulingPolicy",
    "FifoPolicy",
    "FairSharePolicy",
    "BackpressurePolicy",
    "DeadlinePolicy",
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
    """Base policy: admit what the queue admits, FIFO ordering."""

    name = "base"

    def admit(
        self,
        job: SchedJob,
        queue: DeviceServiceQueue,
        now: float,
    ) -> bool:
        """Whether ``job`` may join ``queue.waiting`` (False = rejected).

        Called only for a job the queue has room for:
        :meth:`DeviceServiceQueue.on_arrival` bounces a background job off
        the device's ``max_queue_length`` cap before asking.  The default
        admits it.  Policies may shed more (:class:`BackpressurePolicy`) or
        annotate the job here (:class:`DeadlinePolicy` stamps
        ``job.deadline``).
        """
        return True

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
        """The device a job arrives at: the one it was submitted to.

        Every job is pinned; this stays the scheduler's admission seam,
        which ``benchmarks/e2e/tracing.py`` times by name.
        """
        return job.device_name

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class FifoPolicy(SchedulingPolicy):
    """First come, first served — the baseline every cloud queue starts as."""

    name = "fifo"


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


class BackpressurePolicy(SchedulingPolicy):
    """Shed background load smoothly against queue depth (CodaLab-style).

    Instead of a hard cliff at the admission cap, the gate opens fully below
    ``low_watermark`` waiting jobs, closes fully at ``high_watermark``, and
    sheds a deterministic fraction of arrivals in between (the fill fraction,
    compared against a multiplicative hash of the job id — no RNG, so two
    runs shed identical jobs).  Early shedding keeps queues short: what *is*
    admitted waits far less, and foreground jobs — always admitted — see a
    near-empty device instead of a saturated one.  The queue's hard cap is
    checked before this gate, so a watermark above the cap never admits
    past it.  Ordering stays FIFO.
    """

    name = "backpressure"

    def __init__(self, low_watermark: int = 8, high_watermark: int = 24) -> None:
        low = require(self, "low_watermark", low_watermark, low=0, integer=True)
        require(self, "high_watermark", high_watermark, low=low, open_low=True, integer=True)
        self.low_watermark = int(low_watermark)
        self.high_watermark = int(high_watermark)

    def admit(self, job, queue, now):
        if job.foreground:
            return True
        depth = len(queue.waiting)
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
    bulk tier absorbs the queueing.  Admission only stamps the deadline:
    every job the queue's cap lets through is admitted.
    """

    name = "deadline"

    def __init__(
        self,
        foreground_slack: float = 600.0,
        tier_slacks: Sequence[float] = (900.0, 3600.0, 7200.0),
    ) -> None:
        require(self, "foreground_slack", foreground_slack, low=0.0, open_low=True)
        tier_slacks = tuple(tier_slacks)
        if not tier_slacks:
            raise ValueError("tier_slacks must name at least one tier")
        for i, slack in enumerate(tier_slacks):
            require(self, f"tier_slacks[{i}]", slack, low=0.0, open_low=True)
        self.foreground_slack = float(foreground_slack)
        self.tier_slacks = tuple(float(s) for s in tier_slacks)
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
        FairSharePolicy,
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
