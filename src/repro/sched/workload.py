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
so the traffic on one device is a pure function of the kernel seed, the
device and the workload — independent of fleet composition order, of how far
other devices have been simulated and of the scheduling policy.  That makes
it worth drawing once: the streams belong to an :class:`_ArrivalRecording`
keyed by everything a chunk depends on (kernel seed, device label and queue
model, the generator's traffic key — its type and fields, popularity scale
included — and the attach time), which keeps every chunk drawn so far.  The
first scheduler to need chunk ``i`` draws it; any other scheduler with the
same inputs — another policy under common random numbers, another tournament
cell — replays it, byte for byte, without seeding a ``Generator``.  The table
holds the recordings of one attach's inputs only: the first attach with other
inputs (another seed, workload, fleet scale or attach time) drops the rest.
Those recordings hold at most ``_RECORDED_ARRIVALS`` arrivals between them;
a scheduler that reads past the end of a full recording draws on by itself
from a copy of its streams, so the bytes stay the same and memory stays
bounded however long the run.  A chunk enters the kernel as one
``schedule_batch`` run, which fires exactly as the same timestamps scheduled
one at a time would (``tests/test_sched/test_kernel.py``); the chunk RNG
protocol itself is hex-pinned in ``tests/test_sched/test_workload.py``.
"""

from __future__ import annotations

import copy
import math
from typing import TYPE_CHECKING, Collection, NamedTuple

import numpy as np

from ..cloud.clock import SECONDS_PER_HOUR
from ..cloud.queueing import QueueModel
from .queues import EVENT_PRIORITY, DeviceServiceQueue, SchedJob

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import EventKernel
    from .scheduler import CloudScheduler

__all__ = ["WorkloadGenerator"]

#: The timestamps of an empty chunk (and of a stream before its first).
_NO_TIMES = np.empty(0)
_NO_TIMES.flags.writeable = False

#: Arrivals the recordings of one attach may hold between them, shared
#: evenly by its devices (≈ 32 B an arrival plus ≈ 300 B a chunk, so a few
#: MiB): past its share a recording stores nothing more and every scheduler
#: draws on by itself.  ``sched_fleet`` records ≈ 9k arrivals a cell.
_RECORDED_ARRIVALS = 1 << 16


class _Chunk(NamedTuple):
    """One frozen-rate block of arrivals, read-only once drawn.

    ``times`` is the presorted float64 timestamp array (not writeable);
    the marks are tuples with one entry per arrival.  An empty chunk records
    that the device was idle (zero rate) at ``t0``.
    """

    t0: float
    times: np.ndarray
    tenants: tuple[str, ...]
    circuits: tuple[int, ...]
    priorities: tuple[int, ...]


class _ArrivalRecording:
    """One device's tenant traffic for one input set, drawn once.

    Owns the device's two RNG streams and the append-only list of chunks
    drawn from them so far.  Chunk ``i`` starts at the last timestamp of
    chunk ``i - 1`` (at the attach time for ``i == 0``), so every scheduler
    with the same inputs asks for the same chunks at the same ``t0``.  Once
    ``room`` arrivals are recorded the recording is full: its streams stay
    where its last chunk left them, for schedulers to copy and draw on from.
    """

    __slots__ = ("workload", "model", "rngs", "room", "chunks")

    def __init__(
        self,
        workload: "WorkloadGenerator",
        model: QueueModel,
        kernel: "EventKernel",
        label: str,
        room: int,
    ) -> None:
        self.workload = workload
        self.model = model
        #: The gaps stream and the marks stream.
        self.rngs = (
            kernel.rng_stream(f"workload/{label}"),
            kernel.rng_stream(f"workload/{label}/marks"),
        )
        self.room = room
        self.chunks: list[_Chunk] = []

    def chunk(self, index: int, t0: float) -> _Chunk | None:
        """Chunk ``index``, drawn at ``t0`` now unless already recorded.

        None past the last chunk of a full recording: the caller draws on
        from :meth:`resume`.
        """
        chunks = self.chunks
        if index < len(chunks):
            chunk = chunks[index]
            if chunk.t0 != t0:
                raise RuntimeError(
                    f"arrival chunk {index} was drawn at t0={chunk.t0!r}, "
                    f"replayed at t0={t0!r}: the recording's inputs do not "
                    "determine its traffic"
                )
            return chunk
        if self.room <= 0:
            return None
        chunk = self.draw(self.rngs, t0)
        chunks.append(chunk)
        self.room -= len(chunk.times)
        return chunk

    def resume(self) -> tuple[np.random.Generator, np.random.Generator]:
        """A private copy of the streams where the full recording ends."""
        return copy.deepcopy(self.rngs)

    def draw(
        self, rngs: tuple[np.random.Generator, np.random.Generator], t0: float
    ) -> _Chunk:
        """Draw the next chunk from ``rngs`` (the RNG protocol).

        From the gaps stream, one ``standard_exponential(size=K)`` call;
        timestamps are ``t0 + cumsum(gaps / rate)``.  From the marks stream,
        exactly three calls — ``integers(num_tenants, size=K)``,
        ``integers(lo, hi+1, size=K)``, ``integers(max_priority+1, size=K)``
        — in that order.  The last is skipped when ``max_priority == 0``: a
        draw over a range of one consumes no bits, so the stream cannot tell.
        """
        workload = self.workload
        rate = workload.arrival_rate(self.model, t0)
        if rate <= 0.0:
            return _Chunk(t0, _NO_TIMES, (), (), ())
        size = int(rate * workload.chunk_refresh_seconds)
        size = max(1, min(workload.max_chunk, size))
        gaps_rng, marks_rng = rngs
        gaps = gaps_rng.standard_exponential(size)
        times = t0 + (gaps / rate).cumsum()
        times.flags.writeable = False
        integers = marks_rng.integers
        lo, hi = workload.circuit_range
        tenants = tuple(
            map(
                workload._tenant_names.__getitem__,
                integers(workload.num_tenants, size=size).tolist(),
            )
        )
        circuits = tuple(integers(lo, hi + 1, size=size).tolist())
        if workload.max_priority:
            priorities = tuple(
                integers(workload.max_priority + 1, size=size).tolist()
            )
        else:
            priorities = (0,) * size
        return _Chunk(t0, times, tenants, circuits, priorities)


class _RecordingTable:
    """The arrival recordings of one attach's inputs, by device."""

    __slots__ = ("inputs", "workload", "recordings")

    def __init__(self) -> None:
        self.inputs: tuple | None = None
        self.workload: WorkloadGenerator | None = None
        self.recordings: dict[tuple[str, QueueModel], _ArrivalRecording] = {}

    def lookup(
        self,
        kernel: "EventKernel",
        workload: "WorkloadGenerator",
        queues: Collection[DeviceServiceQueue],
    ) -> list[_ArrivalRecording]:
        """The recordings for one attach's devices; made on first use.

        An attach's inputs are the kernel seed and time and the generator's
        traffic key.  The first attach with other inputs than the last
        drops every recording (schedulers still replaying them keep their
        reference) and snapshots the generator, so a later attach of the
        same object to another fleet cannot reach chunks still to draw.
        """
        inputs = (kernel.seed, kernel.now, workload._traffic_key())
        if inputs != self.inputs:
            self.inputs = inputs
            self.workload = copy.copy(workload)
            self.recordings = {}
        recordings = self.recordings
        found = []
        for queue in queues:
            key = (queue.name, queue.queue_model)
            recording = recordings.get(key)
            if recording is None:
                recording = recordings[key] = _ArrivalRecording(
                    self.workload,
                    queue.queue_model,
                    kernel,
                    queue.name,
                    _RECORDED_ARRIVALS // len(queues),
                )
            found.append(recording)
        return found


#: Process-wide: schedulers that share an attach's inputs share their traffic.
_RECORDINGS = _RecordingTable()


class _DeviceArrivalStream:
    """One scheduler's position in a device's arrival recording.

    The current chunk's timestamps and marks, a cursor into them, and the
    index of the next chunk.  The stream refills itself: firing the last
    arrival of a chunk fetches and admits the next one, with the rate
    re-evaluated at that arrival's time.
    """

    __slots__ = (
        "workload",
        "scheduler",
        "queue",
        "recording",
        "rngs",
        "index",
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
        recording: _ArrivalRecording,
    ) -> None:
        self.workload = workload
        self.scheduler = scheduler
        self.queue = queue
        self.recording = recording
        #: This stream's own copy of the recording's streams, once it has
        #: read past the last chunk of a full recording.
        self.rngs: tuple[np.random.Generator, np.random.Generator] | None = None
        self.index = 0
        #: The chunk's timestamps, kept as the float64 array they were drawn
        #: into: ``schedule_batch`` takes it as is.
        self.times = _NO_TIMES
        self.tenants: tuple[str, ...] = ()
        self.circuits: tuple[int, ...] = ()
        self.priorities: tuple[int, ...] = ()
        self.cursor = 0

    # ------------------------------------------------------------------
    def generate_chunk(self, t0: float) -> bool:
        """Make the next chunk, starting at ``t0``, current; False when idle.

        The chunk comes from the recording: drawn there first if no
        scheduler with the same inputs has reached it yet (see
        :meth:`_ArrivalRecording.draw` for the RNG protocol), replayed
        otherwise.  Past the end of a full recording the stream draws on
        from its own copy of the recording's streams.  Raises
        ``RuntimeError`` if a recorded chunk was drawn at another ``t0``.
        """
        recording = self.recording
        chunk = None if self.rngs else recording.chunk(self.index, t0)
        if chunk is None:
            self.rngs = self.rngs or recording.resume()
            chunk = recording.draw(self.rngs, t0)
        self.index += 1
        self.times = chunk.times
        self.tenants = chunk.tenants
        self.circuits = chunk.circuits
        self.priorities = chunk.priorities
        self.cursor = 0
        return bool(chunk.tenants)

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
        """One arrival: build the job from the chunk's marks, inject, refill."""
        queue = self.queue
        tenants = self.tenants
        i = self.cursor
        self.cursor = i + 1
        job = SchedJob(
            self.scheduler.next_job_id(),
            tenants[i],
            queue.name,
            now,
            self.circuits[i],
            self.priorities[i],
        )
        self.workload.jobs_injected += 1
        queue.on_arrival(job, now)
        if i + 1 >= len(tenants):
            # Chunk exhausted: refill with the rate in force at this arrival.
            if self.generate_chunk(now):
                self.admit_chunk()


#: Generator attributes that do not shape its traffic: the injection
#: counter and the tenant-name cache.
_UNKEYED = frozenset({"jobs_injected", "_tenant_names"})


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
        for name, value in (
            ("jobs_per_tenant_hour", jobs_per_tenant_hour),
            ("chunk_refresh_seconds", chunk_refresh_seconds),
        ):
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive (got {value!r})")
        lo, hi = circuit_range
        if not 1 <= lo <= hi:
            raise ValueError("circuit_range must satisfy 1 <= lo <= hi")
        if max_priority < 0:
            raise ValueError("max_priority must be non-negative")
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

    def _traffic_key(self) -> tuple:
        """Everything about this generator that shapes the traffic it draws.

        Its type and every attribute but those in ``_UNKEYED``, popularity
        scale included, so a field added later keys the arrival recording
        without being listed anywhere else.
        """
        return (
            type(self),
            *(item for item in vars(self).items() if item[0] not in _UNKEYED),
        )

    # ------------------------------------------------------------------
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
        """Arm the first arrival chunk on every registered device.

        Each device's stream reads the process-wide recording for this
        attach's inputs: the first scheduler to attach with them seeds the
        device's two RNG streams, every later one replays what was drawn.
        """
        if self.num_tenants == 0:
            return
        if self.spread_load:
            total = sum(
                q.queue_model.popularity for q in scheduler.queues.values()
            )
            self._popularity_scale = 1.0 / total if total > 0 else 1.0
        kernel = scheduler.kernel
        now = kernel.now
        queues = scheduler.queues.values()
        recordings = _RECORDINGS.lookup(kernel, self, queues)
        for queue, recording in zip(queues, recordings):
            stream = _DeviceArrivalStream(self, scheduler, queue, recording)
            if stream.generate_chunk(now):
                stream.admit_chunk()
