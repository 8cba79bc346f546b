"""Synthetic background tenant traffic for the multi-tenant cloud.

The paper motivates EQC with devices shared by a whole community: queue
delays are congestion-dependent because *other people's jobs* are in front of
yours.  The :class:`WorkloadGenerator` makes that literal — it injects a
Poisson stream of tenant jobs per device into the event kernel, so EQC
gradient jobs genuinely compete for capacity-1 devices instead of sampling a
closed-form wait.

Arrival rates follow the same structure as the statistical
:class:`~repro.cloud.queueing.QueueModel` they replace: each device's rate is
the fleet-wide tenant rate scaled by the device's ``popularity`` (users pile
onto well-rated devices) and its diurnal ``congestion_factor`` (community
load swings by time of day).  The process is a piecewise-homogeneous
approximation of the non-homogeneous Poisson process, generated in
**vectorized chunks**: the rate is frozen at the chunk's start time, a whole
block of inter-arrival gaps is drawn with one ``numpy`` call and accumulated
into absolute timestamps, and the tenant/batch-size/priority marks of the
chunk are drawn as three array calls from a second per-device stream (two
when ``max_priority`` is 0: that draw has no entropy and no effect).  The
chunk spans roughly ``chunk_refresh_seconds`` of simulated time (clamped to
``max_chunk`` arrivals), so the rate still tracks the multi-hour diurnal
curve while the kernel admits arrivals thousands at a time through
:meth:`~repro.sched.kernel.EventKernel.schedule_batch` instead of one heap
push and one RNG scalar draw per job.

Determinism: every device draws from two kernel RNG streams of its own
(``workload/<device>`` for gaps, ``workload/<device>/marks`` for job marks),
so the traffic on one device is a pure function of the kernel seed —
independent of fleet composition order or of how far other devices have been
simulated.  A chunk enters the kernel as one ``schedule_batch`` run, which
fires exactly as the same timestamps scheduled one at a time would
(``tests/test_sched/test_kernel.py``); the chunk RNG protocol itself is
hex-pinned in ``tests/test_sched/test_workload.py``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..cloud.clock import SECONDS_PER_HOUR
from ..cloud.queueing import QueueModel
from .queues import EVENT_PRIORITY, DeviceServiceQueue, SchedJob

if TYPE_CHECKING:  # pragma: no cover
    from .scheduler import CloudScheduler

__all__ = ["WorkloadGenerator"]


class _DeviceArrivalStream:
    """Chunked arrival state for one device: timestamps, marks, a cursor.

    One chunk = one frozen-rate block of presorted arrival timestamps plus
    the per-arrival marks (tenant, circuits, priority) drawn up front.  The
    stream refills itself: firing the last arrival of a chunk generates and
    admits the next one, with the rate re-evaluated at that arrival's time.
    """

    __slots__ = (
        "workload",
        "scheduler",
        "queue",
        "gaps_rng",
        "marks_rng",
        "times",
        "tenants",
        "circuits",
        "priorities",
        "cursor",
    )

    def __init__(
        self,
        workload: "WorkloadGenerator",
        scheduler: "CloudScheduler",
        queue: DeviceServiceQueue,
        gaps_rng: np.random.Generator,
        marks_rng: np.random.Generator,
    ) -> None:
        self.workload = workload
        self.scheduler = scheduler
        self.queue = queue
        self.gaps_rng = gaps_rng
        self.marks_rng = marks_rng
        #: The chunk's timestamps, kept as the float64 array they were drawn
        #: into: ``schedule_batch`` takes it as is.
        self.times = np.empty(0)
        self.tenants: list[int] = []
        self.circuits: list[int] = []
        self.priorities: list[int] = []
        self.cursor = 0

    # ------------------------------------------------------------------
    def generate_chunk(self, t0: float) -> bool:
        """Draw the next chunk starting from time ``t0``; False when idle.

        RNG protocol (the bit-exactness contract): from the gaps stream, one
        ``standard_exponential(size=K)`` call; timestamps are
        ``t0 + cumsum(gaps / rate)``.  From the marks stream, exactly three
        calls — ``integers(num_tenants, size=K)``, ``integers(lo, hi+1,
        size=K)``, ``integers(max_priority+1, size=K)`` — in that order.
        The last is skipped when ``max_priority == 0``: a draw over a range
        of one consumes no bits, so the stream cannot tell.
        """
        workload = self.workload
        rate = workload.arrival_rate(self.queue.queue_model, t0)
        if rate <= 0.0:
            return False
        size = int(rate * workload.chunk_refresh_seconds)
        size = max(1, min(workload.max_chunk, size))
        gaps = self.gaps_rng.standard_exponential(size)
        self.times = t0 + (gaps / rate).cumsum()
        integers = self.marks_rng.integers
        lo, hi = workload.circuit_range
        self.tenants = integers(workload.num_tenants, size=size).tolist()
        self.circuits = integers(lo, hi + 1, size=size).tolist()
        if workload.max_priority:
            self.priorities = integers(workload.max_priority + 1, size=size).tolist()
        else:
            self.priorities = [0] * size
        self.cursor = 0
        return True

    def admit_chunk(self) -> None:
        """Hand the current chunk's timestamps to the kernel as one run."""
        self.scheduler.kernel.schedule_batch(
            self.times,
            self.fire,
            priority=EVENT_PRIORITY["arrival"],
            kind="tenant_arrival",
        )

    # ------------------------------------------------------------------
    def fire(self, now: float) -> None:
        """One arrival: build the job from precomputed marks, inject, refill."""
        workload = self.workload
        queue = self.queue
        tenants = self.tenants
        i = self.cursor
        self.cursor = i + 1
        job = SchedJob(
            self.scheduler.next_job_id(),
            workload._tenant_names[tenants[i]],
            queue.name,
            now,
            self.circuits[i],
            self.priorities[i],
        )
        workload.jobs_injected += 1
        queue.on_arrival(job, now)
        if i + 1 >= len(tenants):
            # Chunk exhausted: refill with the rate in force at this arrival.
            if self.generate_chunk(now):
                self.admit_chunk()


class _TenantNames(dict):
    """Interned ``tenant<i>`` strings by index, built on first use."""

    def __missing__(self, index: int) -> str:
        name = self[index] = f"tenant{index}"
        return name


class WorkloadGenerator:
    """Poisson background tenant traffic across a device fleet.

    Attributes:
        num_tenants: size of the simulated community (0 disables traffic).
        jobs_per_tenant_hour: fleet-wide submission rate per tenant before
            popularity/diurnal scaling.
        circuit_range: inclusive (lo, hi) batch size of one tenant job.
        max_priority: tenant jobs draw a priority in [0, max_priority]
            (0 keeps every tenant job at the EQC default priority).
        chunk_refresh_seconds: target simulated span of one vectorized
            arrival chunk — the rate is frozen within a chunk, so this is
            the resolution at which the diurnal curve is tracked.
        max_chunk: hard cap on arrivals per chunk (bounds memory and how
            long a hot device can outrun a rate change).
        spread_load: when True, per-device rates are normalized by the
            fleet's total popularity, so a fixed tenant community *spreads*
            across however many devices are registered instead of offering
            the full community load to every device independently.  This is
            the fleet-scaling mode the tournament sweeps; the default False
            keeps the historical per-device semantics.
    """

    def __init__(
        self,
        num_tenants: int,
        jobs_per_tenant_hour: float = 1.0,
        circuit_range: tuple[int, int] = (2, 8),
        max_priority: int = 0,
        chunk_refresh_seconds: float = 900.0,
        max_chunk: int = 4096,
        spread_load: bool = False,
    ) -> None:
        if num_tenants < 0:
            raise ValueError("num_tenants must be non-negative")
        if jobs_per_tenant_hour <= 0:
            raise ValueError("jobs_per_tenant_hour must be positive")
        lo, hi = circuit_range
        if not 1 <= lo <= hi:
            raise ValueError("circuit_range must satisfy 1 <= lo <= hi")
        if max_priority < 0:
            raise ValueError("max_priority must be non-negative")
        if chunk_refresh_seconds <= 0:
            raise ValueError("chunk_refresh_seconds must be positive")
        if max_chunk < 1:
            raise ValueError("max_chunk must be at least 1")
        self.num_tenants = int(num_tenants)
        self.jobs_per_tenant_hour = float(jobs_per_tenant_hour)
        self.circuit_range = (int(lo), int(hi))
        self.max_priority = int(max_priority)
        self.chunk_refresh_seconds = float(chunk_refresh_seconds)
        self.max_chunk = int(max_chunk)
        self.spread_load = bool(spread_load)
        self.jobs_injected = 0
        self._popularity_scale = 1.0
        #: Read with a plain dict lookup once per arrival.
        self._tenant_names = _TenantNames()

    # ------------------------------------------------------------------
    def tenant_name(self, index: int) -> str:
        """Interned ``tenant<i>`` string (10k tenants → 10k cached names)."""
        return self._tenant_names[index]

    def arrival_rate(self, model: QueueModel, now: float) -> float:
        """Instantaneous arrivals/second on one device at time ``now``."""
        if self.num_tenants == 0:
            return 0.0
        base = self.num_tenants * self.jobs_per_tenant_hour / SECONDS_PER_HOUR
        return (
            base
            * model.popularity
            * self._popularity_scale
            * model.congestion_factor(now)
        )

    # ------------------------------------------------------------------
    def attach(self, scheduler: "CloudScheduler") -> None:
        """Arm the first arrival chunk on every registered device."""
        if self.num_tenants == 0:
            return
        if self.spread_load:
            total = sum(
                q.queue_model.popularity for q in scheduler.queues.values()
            )
            self._popularity_scale = 1.0 / total if total > 0 else 1.0
        now = scheduler.kernel.now
        for queue in scheduler.queues.values():
            stream = _DeviceArrivalStream(
                workload=self,
                scheduler=scheduler,
                queue=queue,
                gaps_rng=scheduler.kernel.rng_stream(f"workload/{queue.name}"),
                marks_rng=scheduler.kernel.rng_stream(
                    f"workload/{queue.name}/marks"
                ),
            )
            if stream.generate_chunk(now):
                stream.admit_chunk()
