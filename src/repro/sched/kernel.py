"""The discrete-event kernel: one heap, one clock, deterministic replay.

Everything the multi-tenant cloud does — job arrivals, service starts and
completions, calibration downtime windows, background tenant traffic — fires
through a single binary heap.  The kernel pops entries in
``(time, priority, sequence)`` order, so two runs with the same seeds process
exactly the same events in exactly the same order, which is the property every
scheduling experiment in this reproduction leans on.

The fleet-scale rework keeps that contract while cutting the per-event cost
by roughly an order of magnitude.  Three mechanisms:

* **Sorted runs** (:meth:`EventKernel.schedule_batch`).  A batch of timestamps
  sharing one action is admitted as a single *run*: the timestamps are sorted
  once (numpy, C speed) and the run contributes exactly one cursor entry to
  the heap.  Popping the cursor fires the head timestamp and pushes the next
  one back, so a million-event arrival stream costs heap operations on a
  heap of size ~(runs + single events), not one million pushes on a
  million-entry heap — tuple comparisons per pop drop from ~20 to ~1.  The
  drain loops additionally fire consecutive run elements inline while they
  remain ahead of the rest of the heap (re-checking the heap top after every
  action, so an action that schedules an earlier event is never overtaken).
* **Cheap events.**  :class:`Event` is a ``__slots__`` class, and the heap
  entry carries the action callable directly so the hot loops never touch
  event attributes.  A recurring owner need not allocate at all:
  :meth:`EventKernel.rearm` puts a fired event back on the heap under a
  fresh sequence number, so each device re-arms one service-completion
  event (and its bound action) for every job it serves.
* **Lazy cancellation with a compaction sweep.**  ``Event.cancel()`` only
  flips a flag; dead entries are discarded when popped.  The kernel counts
  cancelled-but-pending events and, when more than half of the heap is dead,
  sweeps it in place (filter + ``heapify``), so pathological cancel storms
  cannot leave the heap dominated by corpses.

Two design points deserve a note:

* **The clock is a high-water mark.**  The kernel shares the cloud's
  :class:`~repro.cloud.clock.VirtualClock`; every processed event advances it
  with ``advance_to`` semantics (a documented no-op for past timestamps).
  The EQC master replays job completions out of submission order (it pops the
  *earliest* finish among in-flight jobs, then dispatches at that time), so an
  EQC submission may carry a timestamp older than the furthest point the
  kernel has already simulated.  Such events are legal: they are heap-ordered
  against all *pending* events by their own timestamp, they execute with that
  timestamp, and they simply cannot rewind work the kernel already committed
  (a late submission queues behind already-simulated traffic on its device,
  exactly as it would on a real cloud).
* **RNG streams are per label.**  :meth:`EventKernel.rng_stream` derives an
  independent ``numpy`` generator from ``(kernel seed, crc32(label))``, so the
  tenant-arrival randomness of one device never depends on how many draws
  another device consumed — scheduling order cannot leak into the statistics.
"""

from __future__ import annotations

import heapq
import zlib
from math import inf, isfinite
from operator import le
from typing import Callable

import numpy as np

from .._fields import require
from ..cloud.clock import VirtualClock

__all__ = ["Event", "EventKernel"]

#: An event's behaviour: called with the event's timestamp when it fires.
EventAction = Callable[[float], None]

#: Below this many heap entries a compaction sweep is not worth the heapify.
_COMPACTION_MIN_HEAP = 64

#: Up to this many timestamps one pass over the list validates a batch faster
#: than three numpy reductions do (≈30 ns an element against ≈6 us a batch).
_SMALL_BATCH = 256


class Event:
    """One cancellable scheduled occurrence, ordered by ``(time, priority, sequence)``.

    ``priority`` breaks ties among simultaneous events (lower fires first);
    ``sequence`` is a kernel-assigned monotone counter that makes the order
    total and therefore deterministic.  The kernel stores the ordering key
    as a plain tuple on its heap (tuple comparison runs in C, which is most
    of the kernel's throughput), so the event itself is never compared.

    An event that has fired may be put back with :meth:`EventKernel.rearm`,
    which gives it a new ``time`` and ``sequence``: an Event returned by
    :meth:`EventKernel.step` (a device's service completion, say) can be
    re-armed later and fire again.
    """

    __slots__ = (
        "time",
        "priority",
        "sequence",
        "kind",
        "action",
        "cancelled",
        "_kernel",
        "_pending",
    )

    def __init__(
        self,
        time: float,
        priority: int,
        sequence: int,
        kind: str = "event",
        action: EventAction | None = None,
        cancelled: bool = False,
    ) -> None:
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.kind = kind
        self.action = action
        self.cancelled = cancelled
        #: Owning kernel, set by :meth:`EventKernel.schedule`; the back
        #: reference lets ``cancel()`` keep the kernel's live/dead accounting
        #: exact so the compaction sweep can trigger at the right moment.
        self._kernel: "EventKernel | None" = None
        self._pending = False

    def cancel(self) -> None:
        """Mark the event dead; the kernel discards it when popped (or sweeps
        it early once dead entries dominate the heap)."""
        if self.cancelled:
            return
        self.cancelled = True
        kernel = self._kernel
        if kernel is not None and self._pending:
            kernel._note_cancelled()

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "live"
        return (
            f"Event(t={self.time:.3f}, prio={self.priority}, "
            f"seq={self.sequence}, kind={self.kind!r}, {state})"
        )


class _Run:
    """A batch of presorted timestamps sharing one action.

    The run keeps exactly one entry on the kernel heap — its cursor.  Firing
    the cursor advances it and re-pushes the next timestamp, so the heap size
    is bounded by the number of *runs*, not the number of batched events.
    Run elements are not individually cancellable (they carry no Event).
    """

    __slots__ = ("times", "count", "index", "priority", "seq0", "kind", "action")

    def __init__(
        self,
        times: list[float],
        priority: int,
        seq0: int,
        kind: str,
        action: EventAction,
    ) -> None:
        self.times = times
        self.count = len(times)
        self.index = 0
        self.priority = priority
        #: First sequence number of the block; element ``i`` owns ``seq0 + i``.
        self.seq0 = seq0
        self.kind = kind
        self.action = action

    @property
    def remaining(self) -> int:
        return self.count - self.index


class EventKernel:
    """A deterministic discrete-event simulation kernel."""

    def __init__(self, clock: VirtualClock | None = None, seed: int = 0) -> None:
        self.clock = clock if clock is not None else VirtualClock()
        self.seed = int(require(self, "seed", seed, low=0, integer=True))
        #: Heap of ``(time, priority, sequence, action, payload)`` where the
        #: payload is an :class:`Event` (single, cancellable) or a
        #: :class:`_Run` cursor (batched).  The unique sequence guarantees
        #: neither payload is ever compared.
        self._heap: list[tuple] = []
        self._seq = 0
        self._cancelled_on_heap = 0
        self._live = 0
        self.events_processed = 0

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """High-water mark of simulated time (seconds)."""
        return self.clock.now

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still awaiting dispatch."""
        return self._live

    @property
    def heap_size(self) -> int:
        """Physical heap entries (runs count once; includes dead events)."""
        return len(self._heap)

    # ------------------------------------------------------------------
    def rng_stream(self, label: str) -> np.random.Generator:
        """An independent, reproducible RNG stream for one named entity.

        The stream depends only on the kernel seed and the label (via a
        stable CRC-32, never Python's randomized ``hash``), so per-device
        randomness is identical across runs and across event interleavings.
        """
        return np.random.default_rng((self.seed, zlib.crc32(label.encode()), 0xE7E7))

    # ------------------------------------------------------------------
    def schedule(
        self,
        time: float,
        action: EventAction,
        priority: int = 0,
        kind: str = "event",
    ) -> Event:
        """Add one event to the heap and return it (for cancellation)."""
        if not 0.0 <= time < inf:  # one chained comparison; false on NaN too
            if not isfinite(time):
                raise ValueError("event timestamps must be finite")
            raise ValueError("events cannot be scheduled before t=0")
        time = float(time)
        priority = int(priority)
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, priority, seq, kind, action)
        event._kernel = self
        event._pending = True
        heapq.heappush(self._heap, (time, priority, seq, action, event))
        self._live += 1
        return event

    def rearm(self, event: Event, time: float) -> None:
        """Put a fired ``event`` back on the heap at ``time``.

        The event keeps its priority, kind and action and takes the next
        sequence number, so it orders exactly as a fresh :meth:`schedule`
        call at this point would.  An event still pending, or cancelled,
        is refused: the first would sit on the heap twice, the second was
        withdrawn for good by whoever cancelled it.
        """
        if event._pending or event.cancelled:
            raise ValueError(f"only a fired event can be re-armed, not {event!r}")
        if event._kernel is not self:
            raise ValueError("an event can only be re-armed on its own kernel")
        if not 0.0 <= time < inf:  # one chained comparison; false on NaN too
            if not isfinite(time):
                raise ValueError("event timestamps must be finite")
            raise ValueError("events cannot be scheduled before t=0")
        time = float(time)
        seq = self._seq
        self._seq = seq + 1
        event.time = time
        event.sequence = seq
        event._pending = True
        heapq.heappush(self._heap, (time, event.priority, seq, event.action, event))
        self._live += 1

    def schedule_batch(
        self,
        times,
        action: EventAction,
        priority: int = 0,
        kind: str = "batch",
    ) -> int:
        """Admit a whole batch of events sharing one ``action`` at once.

        The timestamps are sorted (no-op when already non-decreasing, the
        common case for arrival streams) and enter the heap as a single
        sorted-run cursor, so admission is O(n log n) in C rather than n
        Python-level heap pushes, and dispatch never pays for the batch's
        size in heap depth.  Each element receives its own sequence number
        (allocated as one contiguous block, in time order), so ordering
        against single events is exactly as if the batch had been scheduled
        element-by-element.  Returns the number of admitted events.

        Run elements are not individually cancellable; use :meth:`schedule`
        when a handle is needed.
        """
        if action is None:
            raise ValueError("schedule_batch requires an action")
        arr = np.asarray(times, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("schedule_batch expects a 1-D array of timestamps")
        n = int(arr.size)
        if n == 0:
            return 0
        stamps = arr.tolist()
        # A non-decreasing chain is false on any NaN, so with both ends in
        # [0, inf) it proves every stamp finite, non-negative and in order;
        # whatever it cannot prove gets the array checks and the sort.
        if n > _SMALL_BATCH or not (
            0.0 <= stamps[0]
            and stamps[-1] < inf
            and all(map(le, stamps, stamps[1:]))
        ):
            if not np.isfinite(arr).all():
                raise ValueError("event timestamps must be finite")
            if float(arr.min()) < 0.0:
                raise ValueError("events cannot be scheduled before t=0")
            if n > 1 and bool((np.diff(arr) < 0).any()):
                stamps = np.sort(arr).tolist()
        priority = int(priority)
        seq0 = self._seq
        self._seq = seq0 + n
        run = _Run(stamps, priority, seq0, kind, action)
        heapq.heappush(self._heap, (stamps[0], priority, seq0, action, run))
        self._live += n
        return n

    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """Account one newly dead pending event; sweep when corpses dominate."""
        self._live -= 1
        self._cancelled_on_heap += 1
        heap = self._heap
        if (
            self._cancelled_on_heap * 2 > len(heap)
            and len(heap) >= _COMPACTION_MIN_HEAP
        ):
            survivors = []
            for entry in heap:
                payload = entry[4]
                if payload.__class__ is Event and payload.cancelled:
                    payload._pending = False
                else:
                    survivors.append(entry)
            # In place: the drain loops hold a reference to this exact list.
            heap[:] = survivors
            heapq.heapify(heap)
            self._cancelled_on_heap = 0

    # ------------------------------------------------------------------
    def _fire_one(self) -> tuple | None:
        """Pop and fire the earliest live event; returns its heap entry.

        Shared by :meth:`step` and :meth:`run_until`; the bulk drain in
        :meth:`run_until_time` inlines the same logic for throughput.
        """
        heap = self._heap
        clock = self.clock
        while heap:
            entry = heapq.heappop(heap)
            payload = entry[4]
            if payload.__class__ is _Run:
                run = payload
                i = run.index + 1
                run.index = i
                if i < run.count:
                    heapq.heappush(
                        heap,
                        (run.times[i], run.priority, run.seq0 + i, run.action, run),
                    )
            elif payload.cancelled:
                self._cancelled_on_heap -= 1
                payload._pending = False
                continue
            else:
                payload._pending = False
            time_ = entry[0]
            if time_ > clock._now:  # inlined VirtualClock.advance_to (no-op past)
                clock._now = time_
            self.events_processed += 1
            self._live -= 1
            action = entry[3]
            if action is not None:
                action(time_)
            return entry
        return None

    def step(self) -> Event | None:
        """Pop and execute the earliest live event (``None`` when drained).

        Batched (run) events have no persistent handle; ``step`` returns a
        transient :class:`Event` describing the firing.
        """
        entry = self._fire_one()
        if entry is None:
            return None
        payload = entry[4]
        if payload.__class__ is Event:
            return payload
        return Event(entry[0], entry[1], entry[2], kind=payload.kind, action=entry[3])

    def run_until(
        self,
        predicate: Callable[[], bool],
        max_events: int = 50_000_000,
    ) -> int:
        """Process events until ``predicate()`` holds; returns events run.

        Raises ``RuntimeError`` if the heap drains (or ``max_events`` is hit)
        before the predicate is satisfied — a scheduler deadlock is a bug, not
        a quiet hang.
        """
        require(self, "max_events", max_events, low=1, integer=True)
        processed = 0
        while not predicate():
            if processed >= max_events:
                raise RuntimeError(
                    f"run_until exceeded {max_events} events without satisfying "
                    "its predicate (runaway workload or scheduler deadlock)"
                )
            if self._fire_one() is None:
                raise RuntimeError(
                    "event heap drained before run_until's predicate held"
                )
            processed += 1
        return processed

    def run_until_time(self, timestamp: float) -> int:
        """Process every pending event with ``time <= timestamp``.

        This is the bulk drain loop: consecutive elements of a sorted run
        fire inline, without per-element heap traffic, for as long as they
        remain strictly ahead of every other pending entry (the heap top is
        re-checked after each action, so anything an action schedules —
        including a past-timestamped replay — is dispatched in exact
        ``(time, priority, sequence)`` order).  ``timestamp`` must be
        finite: no pending event is later than NaN, and recurring events
        (calibration cycles) would keep an infinite bound draining forever.
        """
        require(self, "timestamp", timestamp)
        heap = self._heap
        pop = heapq.heappop
        push = heapq.heappush
        clock = self.clock
        processed = 0
        while heap:
            if heap[0][0] > timestamp:
                break
            entry = pop(heap)
            time_, priority, _seq, action, payload = entry
            if payload.__class__ is _Run:
                run = payload
                times = run.times
                count = run.count
                seq0 = run.seq0
                i = run.index
                while True:
                    if time_ > clock._now:  # inlined advance_to (no-op past)
                        clock._now = time_
                    processed += 1
                    action(time_)
                    i += 1
                    if i >= count:
                        run.index = i
                        break
                    next_time = times[i]
                    if next_time > timestamp:
                        run.index = i
                        push(heap, (next_time, priority, seq0 + i, action, run))
                        break
                    if heap:
                        top = heap[0]
                        top_time = top[0]
                        if next_time > top_time or (
                            next_time == top_time
                            and (priority, seq0 + i) > (top[1], top[2])
                        ):
                            run.index = i
                            push(heap, (next_time, priority, seq0 + i, action, run))
                            break
                    time_ = next_time
                continue
            if payload.cancelled:
                self._cancelled_on_heap -= 1
                payload._pending = False
                continue
            payload._pending = False
            if time_ > clock._now:  # inlined advance_to (no-op past)
                clock._now = time_
            processed += 1
            if action is not None:
                action(time_)
        self.events_processed += processed
        self._live -= processed
        self.clock.advance_to(timestamp)
        return processed

    def __repr__(self) -> str:
        return (
            f"EventKernel(t={self.now:.1f}s, pending={self.pending}, "
            f"processed={self.events_processed})"
        )
