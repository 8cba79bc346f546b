"""The EQC master node (paper Algorithm 1).

The master owns the global parameter vector, the cyclic task queue, and the
weighting state.  It dispatches one task to every idle client, waits for the
earliest in-flight job to finish (on the virtual clock), applies the weighted
ASGD update with whatever parameter snapshot that gradient was computed from
(gradient staleness is therefore real, exactly as in the asynchronous Ray
implementation), refreshes the finishing client's weight from its latest
``PCorrect``, and immediately hands that client the next task.

An *epoch* completes every time ``cycle_length`` updates have been applied —
the same bookkeeping the paper uses when it reports convergence epochs and
epochs/hour.
"""

from __future__ import annotations

import heapq
import itertools
import time
from array import array
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .._fields import require
from ..cloud.clock import SECONDS_PER_HOUR
from ..faults.errors import DeviceOutageError, FaultError, FleetExhaustedError
from ..faults.health import DeviceHealthTracker
from ..telemetry import TELEMETRY as _telemetry
from ..vqa.optimizer import AsgdRule, ParameterVectorState
from ..vqa.tasks import CyclicTaskQueue, GradientTask
from .client import DispatchedTask, EQCClientNode, GradientOutcome
from .history import EpochRecord, TrainingHistory
from .objective import VQAObjective
from .weighting import WeightingConfig, normalize_weights

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..persist.checkpoint import TrainingCheckpointer

__all__ = ["EQCMasterNode", "MasterTelemetry"]


@dataclass
class MasterTelemetry:
    """Run-level counters the master accumulates (exposed for analysis)."""

    updates_applied: int = 0
    jobs_dispatched: int = 0
    circuits_executed: int = 0
    total_staleness: int = 0
    max_staleness: int = 0

    @property
    def mean_staleness(self) -> float:
        """Average parameter-version lag between dispatch and update."""
        if self.updates_applied == 0:
            return 0.0
        return self.total_staleness / self.updates_applied


@dataclass(order=True)
class _InFlight:
    """One outstanding event, ordered by its time on the master's heap.

    A job is on the heap as soon as its *clock* is known, with ``outcome=None``
    and the ``job_id`` :meth:`EQCMasterNode.gather` collects it by at the
    front, where the provider's next stacked pass runs its physics.

    With fault tolerance active, three more event kinds share the heap:
    ``failure`` (a dispatch raised a :class:`FaultError`; ``finish_time`` is
    the virtual time the failure is detected), ``straggler`` (a job whose
    finish would blow the dispatch deadline; absorbed at the cutoff), and
    ``probe`` (dispatch parked behind an open circuit breaker until its
    recovery time).  All three carry the task so no gradient work is lost.
    """

    finish_time: float
    sequence: int
    outcome: GradientOutcome | None = field(compare=False)
    client: EQCClientNode = field(compare=False)
    job_id: int = field(compare=False, default=-1)
    kind: str = field(compare=False, default="job")
    task: GradientTask | None = field(compare=False, default=None)
    failure: FaultError | None = field(compare=False, default=None)


@dataclass(slots=True)
class LoopState:
    """Where the training loop stands before its next heap pop, and all of it
    that a checkpoint persists: the event heap, the last event sequence number
    handed out, the simulated clock and the epochs completed."""

    pending: list[_InFlight]
    sequence: int
    now: float
    epoch_completed: int = 0


class _LoopTelemetry:
    """The training loop's telemetry (enabled runs only): each update's wall time
    and staleness, and each epoch's wall-clock and simulated-time spans."""

    def __init__(self, loop: LoopState, wall_start: int) -> None:
        self.epoch = loop.epoch_completed
        self.wall_start = wall_start
        self.sim_start = loop.now

    def observe(self, loop: LoopState, updates: int, seconds: float, staleness: int) -> None:
        registry = _telemetry.registry
        registry.histogram("eqc.weight_update_seconds").observe(seconds)
        registry.histogram(
            "eqc.update_staleness", bounds=(0, 1, 2, 4, 8, 16, 32)
        ).observe(max(0, staleness))
        if loop.epoch_completed == self.epoch:
            return
        self.epoch = loop.epoch_completed
        name, end_ns = f"epoch {self.epoch}", time.time_ns()
        _telemetry.tracer.add_span(name, "eqc", self.wall_start, end_ns, args={"updates": updates})
        _telemetry.tracer.add_sim_span(
            name, "eqc", "eqc epochs", self.sim_start, loop.now - self.sim_start
        )
        self.wall_start, self.sim_start = end_ns, loop.now


def checked_initial_parameters(
    objective: VQAObjective, initial_parameters: Sequence[float]
) -> np.ndarray:
    """The float vector training starts from: one finite value per parameter
    of ``objective``, or a ``ValueError`` naming ``initial_parameters``."""
    theta = np.asarray(initial_parameters, dtype=float)
    if theta.shape != (objective.num_parameters,):
        raise ValueError(
            f"initial_parameters must hold the objective's {objective.num_parameters} "
            f"values (got shape {theta.shape})"
        )
    bad = np.flatnonzero(~np.isfinite(theta))
    if bad.size:
        raise ValueError(
            f"initial_parameters must be finite (got {theta[bad[0]]} at index {bad[0]})"
        )
    return theta


class EQCMasterNode:
    """Coordinates asynchronous VQA training over a quantum ensemble."""

    def __init__(
        self,
        objective: VQAObjective,
        clients: Sequence[EQCClientNode],
        task_queue: CyclicTaskQueue,
        rule: AsgdRule,
        weighting: WeightingConfig,
        initial_parameters: Sequence[float],
        label: str = "EQC",
        start_time: float = 0.0,
        health: DeviceHealthTracker | None = None,
        dispatch_deadline: float | None = None,
        min_live_devices: int = 1,
    ) -> None:
        if not clients:
            raise ValueError("the ensemble needs at least one client node")
        names = [client.name for client in clients]
        if len(set(names)) != len(names):
            raise ValueError("client names must be unique")
        require(self, "start_time", start_time, low=0.0)
        if dispatch_deadline is not None:
            require(self, "dispatch_deadline", dispatch_deadline, low=0.0, open_low=True)
        require(self, "min_live_devices", min_live_devices, low=1, high=len(clients), integer=True)
        self.objective = objective
        self.clients = list(clients)
        self.task_queue = task_queue
        self.rule = rule
        self.weighting = weighting
        self.label = label
        self.state = ParameterVectorState(
            checked_initial_parameters(objective, initial_parameters)
        )
        self.telemetry = MasterTelemetry()
        #: Dispatched tasks by ``job_id``, held until their outcome is collected.
        self._dispatched: dict[int, DispatchedTask] = {}
        self._job_ids = itertools.count()
        self._start_time = float(start_time)
        self._p_correct: dict[str, float] = {}
        self._weights: dict[str, float] = {client.name: 1.0 for client in clients}
        #: Circuit breakers gating dispatch; None disables fault tolerance
        #: (the default path pays a couple of ``is not None`` branches only).
        self._health = health
        self.dispatch_deadline = None if dispatch_deadline is None else float(dispatch_deadline)
        self.min_live_devices = int(min_live_devices)
        #: Clients still in the rotation (retirement removes them here; the
        #: full roster in ``self.clients`` is never mutated).
        self._live: list[EQCClientNode] = list(self.clients)
        #: Tasks recovered from failed/cut dispatches, served before the
        #: cyclic queue so no gradient coordinate is starved by faults.
        self._orphans: deque[GradientTask] = deque()
        #: Fleet-level fault events in occurrence order (history metadata).
        self._fleet_events: list[dict] = []
        self._fault_stats = {
            "dispatch_failures": 0,
            "stragglers_cut": 0,
            "retired_devices": 0,
            "probes": 0,
        }

    @property
    def _fault_tolerant(self) -> bool:
        return self._health is not None or self.dispatch_deadline is not None

    @property
    def health(self) -> DeviceHealthTracker | None:
        """The circuit-breaker tracker (None when fault tolerance is off)."""
        return self._health

    @property
    def live_device_names(self) -> tuple[str, ...]:
        return tuple(client.device_name for client in self._live)

    # ------------------------------------------------------------------
    @property
    def cycle_length(self) -> int:
        return self.task_queue.cycle_length

    @property
    def current_weights(self) -> dict[str, float]:
        """The most recently computed per-client weights."""
        return dict(self._weights)

    # ------------------------------------------------------------------
    def train(
        self,
        num_epochs: int | None = None,
        record_every: int = 1,
        target_updates: int | None = None,
        checkpointer: "TrainingCheckpointer | None" = None,
        max_sim_hours: float | None = None,
    ) -> TrainingHistory:
        """Run the optimization for ``num_epochs`` epochs or exactly
        ``target_updates`` updates, recording every ``record_every``-th epoch
        (``max_sim_hours``: :meth:`_close_epoch`).  ``checkpointer`` (see
        :class:`repro.persist.TrainingCheckpointer`) journals every update and
        checkpoints, or resumes a restored run; it consumes no randomness."""
        target_updates = self._update_budget(num_epochs, target_updates, record_every)
        wall_start = time.time_ns()
        history, loop = self._start(checkpointer)
        observer = _LoopTelemetry(loop, wall_start) if _telemetry.enabled else None
        due: list[tuple] = []  # recorded epochs awaiting their exact loss
        while self.telemetry.updates_applied < target_updates and loop.pending:
            item = self._pop(loop)
            if item.kind != "job":
                self._absorb_fault(loop, item)
                continue
            outcome = self.gather(item)
            started = time.perf_counter()
            staleness = self._apply(item.client, outcome, loop.now, checkpointer)
            seconds = time.perf_counter() - started
            if self.telemetry.updates_applied % self.cycle_length == 0:
                target_updates = self._close_epoch(
                    loop, history, due, target_updates, record_every, max_sim_hours
                )
            if observer is not None:
                observer.observe(loop, self.telemetry.updates_applied, seconds, staleness)
            if self.telemetry.updates_applied < target_updates:
                self._dispatch(loop, item.client)  # the finishing client's next task
            if checkpointer is not None:
                self._score(history, due)  # the journal sees each record before its hook
                checkpointer.after_iteration(self, history, loop)
        return self._finish(history, loop, due, publish=observer is not None)

    def _update_budget(
        self, num_epochs: int | None, target_updates: int | None, record_every: int
    ) -> int:
        """The number of updates a train call applies (its arguments checked)."""
        if target_updates is None:
            require(self, "num_epochs", num_epochs, low=1, integer=True)
            target_updates = num_epochs * self.cycle_length
        else:
            require(self, "target_updates", target_updates, low=1, integer=True)
        require(self, "record_every", record_every, low=1, integer=True)
        return target_updates

    def _start(
        self, checkpointer: "TrainingCheckpointer | None"
    ) -> tuple[TrainingHistory, LoopState]:
        """A train call's history and the loop state it enters at: a restored
        checkpoint's, or a fresh run's after one dispatch to every client
        (Algorithm 1's first loop)."""
        history = TrainingHistory(
            label=self.label,
            device_names=tuple(client.device_name for client in self.clients),
            metadata={
                "weighting": self.weighting.describe(),
                "learning_rate": self.rule.learning_rate,
                "num_clients": len(self.clients),
            },
        )
        loop = None if checkpointer is None else checkpointer.restore_into(self, history)
        if loop is None:
            loop = LoopState([], 0, self._start_time)
            for client in list(self._live):
                self._dispatch(loop, client)
        return history, loop

    def _pop(self, loop: LoopState) -> _InFlight:
        """The earliest event on the heap; the clock advances to its time."""
        item = heapq.heappop(loop.pending)
        loop.now = max(loop.now, item.finish_time)
        return item

    def _apply(
        self,
        client: EQCClientNode,
        outcome: GradientOutcome,
        now: float,
        checkpointer: "TrainingCheckpointer | None",
    ) -> int:
        """Refresh ``client``'s ``PCorrect`` and the ensemble weights, then apply
        the weighted asynchronous update (Eq. 4 / Eq. 12) and journal it (on
        resume: verify it); returns its staleness."""
        if self._health is not None:
            self._health.record_success(client.device_name, now)
        self._p_correct[client.name] = outcome.p_correct
        if self.weighting.refresh_on_every_update or not self._weights_initialized():
            self._weights = normalize_weights(self._p_correct, self.weighting.bounds)
        weight = self._weights.get(client.name, 1.0)
        staleness = self.state.version - outcome.theta_version
        self.telemetry.total_staleness += max(0, staleness)
        self.telemetry.max_staleness = max(self.telemetry.max_staleness, staleness)
        new_value = self.state.apply(
            outcome.task.parameter_index, outcome.gradient, self.rule, weight
        )
        self.telemetry.updates_applied += 1
        if checkpointer is not None:
            checkpointer.record_update(self, outcome, weight, new_value)
        return staleness

    def _close_epoch(
        self,
        loop: LoopState,
        history: TrainingHistory,
        due: list[tuple],
        target_updates: int,
        record_every: int,
        max_sim_hours: float | None,
    ) -> int:
        """Count the epoch the last update completed, queue its record if it is
        due, and return the update budget.  ``max_sim_hours`` is the paper's
        cutoff for crawling devices: past that much simulated time the budget
        shrinks to the updates applied, so this epoch is recorded as the last
        (``history.terminated_early``); jobs in flight are never applied."""
        loop.epoch_completed += 1
        applied = self.telemetry.updates_applied
        if (
            max_sim_hours is not None
            and (loop.now - self._start_time) / SECONDS_PER_HOUR > max_sim_hours
        ):
            history.terminated_early = True
            history.termination_reason = (
                f"exceeded {max_sim_hours:.0f} simulated hours "
                f"after {loop.epoch_completed} epochs"
            )
            target_updates = applied
        if loop.epoch_completed % record_every == 0 or applied >= target_updates:
            due.append(self._epoch_row(loop.epoch_completed, loop.now))
        return target_updates

    def _finish(
        self, history: TrainingHistory, loop: LoopState, due: list[tuple], publish: bool
    ) -> TrainingHistory:
        """Draw the in-flight jobs' shots, record updates past the last full epoch
        as a partial epoch, score the recorded epochs and write the run's counters."""
        for client in self.clients:
            client.provider.resolve()
        tail_updates = self.telemetry.updates_applied - loop.epoch_completed * self.cycle_length
        if tail_updates > 0:
            due.append(self._epoch_row(loop.epoch_completed + 1, loop.now))
            history.metadata["final_epoch_partial_updates"] = tail_updates
            history.final_epoch_fraction = tail_updates / self.cycle_length
        self._score(history, due)
        history.total_updates = self.telemetry.updates_applied
        history.total_jobs = self.telemetry.jobs_dispatched
        history.metadata["mean_staleness"] = self.telemetry.mean_staleness
        history.metadata["max_staleness"] = self.telemetry.max_staleness
        history.metadata["circuits_executed"] = self.telemetry.circuits_executed
        if self._fault_tolerant:
            # Only the fault-tolerant configuration writes these keys, so
            # default-path history metadata stays byte-identical to the seed.
            history.metadata["fleet_events"] = list(self._fleet_events)
            history.metadata["fault_stats"] = dict(self._fault_stats)
            history.metadata["live_devices"] = list(self.live_device_names)
            if self._health is not None:
                history.metadata["breakers"] = self._health.summary()
        if publish:
            self.publish()
        return history

    def gather(self, item: _InFlight) -> GradientOutcome:
        """The outcome of a job event, collected from its dispatched task once."""
        if item.outcome is None:
            item.outcome = self._dispatched.pop(item.job_id).collect()
        return item.outcome

    def register(self, dispatched: DispatchedTask) -> int:
        """Hold a dispatched task until it is collected; returns its job id
        (a restored checkpoint re-enters its parked tasks here)."""
        job_id = next(self._job_ids)
        self._dispatched[job_id] = dispatched
        return job_id

    def parked_task(self, item: _InFlight) -> DispatchedTask | None:
        """The task behind a heap entry whose physics is still parked, which a
        checkpoint stores as it is; once the counts are in, ``None`` — and a
        ``job`` entry is collected into its outcome (arithmetic, no RNG)."""
        dispatched = self._dispatched.get(item.job_id)
        if dispatched is None or dispatched.cloud_job.parked:
            return dispatched
        if item.kind == "job":
            self.gather(item)
        return None

    def snapshot_state(self) -> dict:
        """The master's training state as a checkpoint stores it (the event
        heap is stored per entry by ``repro.persist.state.snapshot_inflight``):
        parameters, counters, ``PCorrect`` and weights (names; their values
        one float column), orphaned tasks, fleet events (rows; their times one
        column), fault stats, the live roster and the task queue's position."""
        state, events = self.state, self._fleet_events
        return {
            "values": array("d", state.values.tolist()),
            "update_counts": state.update_counts.tolist(),
            "version": state.version,
            "telemetry": vars(self.telemetry),
            "p_correct": list(self._p_correct),
            "weights": list(self._weights),
            "rates": array("d", [*self._p_correct.values(), *self._weights.values()]),
            "orphans": [[t.task_id, t.parameter_index, t.data_index] for t in self._orphans],
            "fleet_events": [[e["kind"], e["device"], e["detail"]] for e in events],
            "event_times": array("d", [e["time"] for e in events]),
            "fault_stats": self._fault_stats,
            "live": [client.name for client in self._live],
            "tasks_issued": self.task_queue.tasks_issued,
        }

    def restore_state(self, data: dict) -> None:
        """Restore :meth:`snapshot_state` into this (freshly built) master."""
        self.state.values[:] = data["values"]
        self.state.update_counts[:] = data["update_counts"]
        self.state.version = data["version"]
        for counter, value in data["telemetry"].items():
            setattr(self.telemetry, counter, value)
        rates, split = data["rates"], len(data["p_correct"])
        self._p_correct = dict(zip(data["p_correct"], rates[:split], strict=True))
        self._weights = dict(zip(data["weights"], rates[split:], strict=True))
        self._orphans = deque(GradientTask(*row) for row in data["orphans"])
        self._fleet_events = [
            {"kind": kind, "device": device, "time": at, "detail": detail}
            for (kind, device, detail), at in zip(
                data["fleet_events"], data["event_times"], strict=True
            )
        ]
        self._fault_stats = dict(data["fault_stats"])
        clients_by_name = {client.name: client for client in self.clients}
        self._live = [clients_by_name[name] for name in data["live"]]
        self.task_queue._issued = data["tasks_issued"]

    def _epoch_row(self, epoch: int, now: float) -> tuple:
        return (epoch, now, self.state.snapshot(), self.current_weights)

    def _score(self, history: TrainingHistory, unscored: list[tuple]) -> None:
        """Add the :meth:`_epoch_row` rows to ``history``, scored in one call."""
        if unscored:
            losses = self.objective.exact_losses([row[2] for row in unscored])
            for (epoch, now, parameters, weights), loss in zip(unscored, losses, strict=True):
                hours = (now - self._start_time) / SECONDS_PER_HOUR
                history.add(EpochRecord(epoch, hours, loss, parameters, weights))
            unscored.clear()

    def publish(self, registry=None, prefix: str = "eqc") -> None:
        """Write the master's run counters into a metrics registry as gauges."""
        if registry is None:
            registry = _telemetry.registry
        telemetry = self.telemetry
        registry.gauge(f"{prefix}.updates_applied").set(telemetry.updates_applied)
        registry.gauge(f"{prefix}.jobs_dispatched").set(telemetry.jobs_dispatched)
        registry.gauge(f"{prefix}.circuits_executed").set(telemetry.circuits_executed)
        registry.gauge(f"{prefix}.mean_staleness").set(telemetry.mean_staleness)
        registry.gauge(f"{prefix}.max_staleness").set(telemetry.max_staleness)

    # ------------------------------------------------------------------
    def _next_task(self) -> GradientTask:
        """Orphaned tasks (failed/cut dispatches) go out before new ones."""
        if self._orphans:
            return self._orphans.popleft()
        return self.task_queue.next_task()

    def _dispatch(
        self, loop: LoopState, client: EQCClientNode, task: GradientTask | None = None
    ) -> _InFlight:
        """Hand ``client`` ``task`` (by default the next one) at ``loop.now`` and
        push its heap event, which a fault turns into an event carrying the
        task: ``probe``, ``failure`` or ``straggler`` (see :class:`_InFlight`)."""
        now, device = loop.now, client.device_name
        loop.sequence += 1
        task = self._next_task() if task is None else task
        kind, at, job_id, failure = "job", now, -1, None
        if self._health is not None and not self._health.allow(device, now):
            # Breaker open: park the dispatch until the recovery time; the
            # retry becomes the breaker's probe job.
            self._fault_stats["probes"] += 1
            kind, at = "probe", max(now, self._health.retry_at(device))
        else:
            try:
                # The dispatch returns once the job's clock is known; the physics
                # runs later and is collected when this entry reaches the front.
                dispatched = client.dispatch_task(
                    task, self.state.snapshot(), now, self.state.version
                )
            except FaultError as exc:
                # The failure is only *known* at its virtual detection time:
                # parked on the heap, its bookkeeping happens in event order.
                kind, at, failure = "failure", max(now, exc.detect_time), exc
            else:
                job_id, at = self.register(dispatched), dispatched.cloud_job.finish_time
                self.telemetry.jobs_dispatched += 1
                self.telemetry.circuits_executed += dispatched.cloud_job.num_circuits
                if self.dispatch_deadline is not None and at - now > self.dispatch_deadline:
                    # Straggler: the master cuts the job at the cutoff instead
                    # of waiting (its outcome is collected there, then discarded).
                    kind, at = "straggler", now + self.dispatch_deadline
        carried = None if kind == "job" else task  # a fault event carries its task
        item = _InFlight(at, loop.sequence, None, client, job_id, kind, carried, failure)
        heapq.heappush(loop.pending, item)
        return item

    # ------------------------------------------------------------------
    # graceful degradation
    # ------------------------------------------------------------------
    def _absorb_fault(self, loop: LoopState, item: _InFlight) -> None:
        """Process one non-job heap event: breaker bookkeeping, task recovery
        and re-dispatch; the update path never sees it."""
        client, now = item.client, loop.now
        device = client.device_name
        if item.kind == "probe":
            if client in self._live:
                self._dispatch(loop, client, item.task)
            else:
                self._orphans.append(item.task)
            return
        if item.kind == "failure":
            stat, event = "dispatch_failures", "job_failure"
        elif item.kind == "straggler":
            stat, event = "stragglers_cut", "straggler_cut"
            if item.job_id >= 0:
                # Drain the job's outcome (and discard it): the cut job
                # ran all the same, and leaves the dispatched registry here.
                self._dispatched.pop(item.job_id).collect()
        else:
            raise RuntimeError(f"unknown in-flight event kind {item.kind!r}")
        # One tail for both: record the failure, recover the task, then
        # retire the device or hand it the next task.
        failure = item.failure  # None for a straggler
        detail = type(failure).__name__ if failure is not None else ""
        permanent = isinstance(failure, DeviceOutageError) and failure.permanent
        self._fault_stats[stat] += 1
        if self._health is not None:
            if permanent:
                self._health.mark_dead(device, now)
            else:
                self._health.record_failure(device, now)
        self._record_fleet_event(event, device, now, detail=detail)
        self._orphans.append(item.task)
        if permanent or (self._health is not None and self._health.is_dead(device)):
            self._retire(client, now, reason=detail or "straggler breaker exhausted")
            return
        self._dispatch(loop, client)

    def _retire(self, client: EQCClientNode, now: float, reason: str) -> None:
        """Remove a dead device from the rotation; training continues.

        The retired client's ``PCorrect`` entry is dropped and the ensemble
        weights renormalize over the survivors, so the dead device's share of
        the update mass redistributes instead of silently decaying.
        """
        if client not in self._live:
            return
        self._live.remove(client)
        self._p_correct.pop(client.name, None)
        self._fault_stats["retired_devices"] += 1
        if self._p_correct:
            self._weights = normalize_weights(self._p_correct, self.weighting.bounds)
        self._record_fleet_event("fleet_shrink", client.device_name, now, detail=reason)
        if _telemetry.enabled:
            _telemetry.registry.counter("eqc.fleet_shrink").inc()
            _telemetry.registry.gauge("eqc.live_devices").set(len(self._live))
        if len(self._live) < self.min_live_devices:
            raise FleetExhaustedError(
                f"only {len(self._live)} live devices remain "
                f"(min_live_devices={self.min_live_devices})",
                detect_time=now,
            )

    def _record_fleet_event(self, kind: str, device: str, now: float, detail: str = "") -> None:
        self._fleet_events.append(
            {"kind": kind, "device": device, "time": float(now), "detail": detail}
        )
        if _telemetry.enabled:
            _telemetry.registry.counter("eqc.fault_events", kind=kind, device=device).inc()

    def _weights_initialized(self) -> bool:
        return len(self._p_correct) == len(self._live)
