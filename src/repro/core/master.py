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
        self.dispatch_deadline = (
            float(dispatch_deadline) if dispatch_deadline is not None else None
        )
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
        """Run the asynchronous optimization for ``num_epochs`` epochs.

        ``target_updates`` overrides the epoch count with an exact update
        budget; when it is not a multiple of ``cycle_length`` the tail
        updates beyond the last full epoch are recorded as a final *partial*
        epoch (flagged in ``history.metadata['final_epoch_partial_updates']``)
        rather than silently dropped.

        ``max_sim_hours`` is the paper's cutoff for crawling devices: at the
        first epoch boundary past that much simulated time the run stops
        before handing out another task, always records that epoch, and
        flags ``history.terminated_early``.  Jobs still in flight are
        resolved but never applied.

        ``checkpointer`` (see :class:`repro.persist.TrainingCheckpointer`)
        journals every committed update, writes checkpoint generations at
        epoch boundaries, and — when it carries restored state — re-enters
        the loop exactly where the interrupted run left off.  Checkpointing
        consumes no randomness and never touches the update path, so the
        trajectory is bit-identical with or without it.  Recorded epochs are
        scored in one ``objective.exact_losses`` call at return (the tail
        included), or with a checkpointer before each ``after_iteration``.
        """
        if target_updates is None:
            require(self, "num_epochs", num_epochs, low=1, integer=True)
            target_updates = num_epochs * self.cycle_length
        else:
            require(self, "target_updates", target_updates, low=1, integer=True)
        require(self, "record_every", record_every, low=1, integer=True)

        history = TrainingHistory(
            label=self.label,
            device_names=tuple(client.device_name for client in self.clients),
            metadata={
                "weighting": self.weighting.describe(),
                "learning_rate": self.rule.learning_rate,
                "num_clients": len(self.clients),
            },
        )

        pending: list[_InFlight] = []
        sequence = 0
        now = self._start_time
        telemetry_on = _telemetry.enabled
        epoch_wall_start = time.time_ns() if telemetry_on else 0
        epoch_sim_start = now
        epoch_completed = 0
        due: list[tuple] = []  # recorded epochs awaiting their exact loss

        restored = None
        if checkpointer is not None:
            restored = checkpointer.restore_into(self, history)
        if restored is not None:
            # Resume: the loop re-enters exactly at the heap pop the
            # interrupted run was about to perform.
            pending, sequence, now, epoch_completed, epoch_sim_start = restored
        else:
            # Initial dispatch: one task per client (Algorithm 1's first loop).
            for client in list(self._live):
                sequence += 1
                heapq.heappush(pending, self._dispatch(client, now, sequence))
        while self.telemetry.updates_applied < target_updates and pending:
            item = heapq.heappop(pending)
            now = max(now, item.finish_time)
            if item.kind != "job":
                # Fault-tolerance event (failure/straggler/probe): absorb it
                # — breaker bookkeeping, task recovery, redispatch — and move
                # on; the update path below never sees it.
                sequence = self._absorb_fault(item, now, sequence, pending)
                continue
            outcome = self.gather(item)
            client = item.client
            if self._health is not None:
                self._health.record_success(client.device_name, now)

            # Refresh this client's PCorrect and rebuild the ensemble weights.
            self._p_correct[client.name] = outcome.p_correct
            if self.weighting.refresh_on_every_update or not self._weights_initialized():
                self._weights = normalize_weights(self._p_correct, self.weighting.bounds)
            weight = self._weights.get(client.name, 1.0)

            # Weighted asynchronous update (Eq. 4 / Eq. 12).
            staleness = self.state.version - outcome.theta_version
            self.telemetry.total_staleness += max(0, staleness)
            self.telemetry.max_staleness = max(self.telemetry.max_staleness, staleness)
            apply_start = time.perf_counter() if telemetry_on else 0.0
            new_value = self.state.apply(
                outcome.task.parameter_index, outcome.gradient, self.rule, weight
            )
            self.telemetry.updates_applied += 1
            if checkpointer is not None:
                # Journal the committed update (or, on resume, verify the
                # replayed update bit-for-bit against its journal record).
                checkpointer.record_update(self, outcome, weight, new_value)
            if telemetry_on:
                registry = _telemetry.registry
                registry.histogram("eqc.weight_update_seconds").observe(
                    time.perf_counter() - apply_start
                )
                registry.histogram(
                    "eqc.update_staleness", bounds=(0, 1, 2, 4, 8, 16, 32)
                ).observe(max(0, staleness))

            # Epoch bookkeeping.
            if self.telemetry.updates_applied % self.cycle_length == 0:
                epoch_completed += 1
                if telemetry_on:
                    end_ns = time.time_ns()
                    _telemetry.tracer.add_span(
                        f"epoch {epoch_completed}",
                        "eqc",
                        epoch_wall_start,
                        end_ns,
                        args={"updates": self.telemetry.updates_applied},
                    )
                    _telemetry.tracer.add_sim_span(
                        f"epoch {epoch_completed}",
                        "eqc",
                        "eqc epochs",
                        epoch_sim_start,
                        now - epoch_sim_start,
                    )
                    epoch_wall_start = end_ns
                    epoch_sim_start = now
                if (
                    max_sim_hours is not None
                    and (now - self._start_time) / SECONDS_PER_HOUR > max_sim_hours
                ):
                    # Out of simulated time: this epoch is the last, so the
                    # update budget shrinks to what has been applied.
                    history.terminated_early = True
                    history.termination_reason = (
                        f"exceeded {max_sim_hours:.0f} simulated hours "
                        f"after {epoch_completed} epochs"
                    )
                    target_updates = self.telemetry.updates_applied
                if epoch_completed % record_every == 0 or (
                    self.telemetry.updates_applied >= target_updates
                ):
                    due.append((epoch_completed, now, self.state.snapshot(), self.current_weights))

            # Hand the finishing client its next task immediately.
            if self.telemetry.updates_applied < target_updates:
                sequence += 1
                heapq.heappush(pending, self._dispatch(client, now, sequence))

            if checkpointer is not None:
                # End of iteration: the loop state is "about to pop the next
                # event", which is exactly where a restore re-enters.
                self._score(history, due)
                checkpointer.after_iteration(
                    self, history, pending, sequence, now, epoch_completed,
                    epoch_sim_start,
                )

        # Jobs still in flight at the budget ran all the same: draw their shots.
        for client in self.clients:
            client.provider.resolve()

        # Tail updates past the last full epoch boundary: record them as a
        # final partial epoch so truncated update budgets stay visible.
        tail_updates = self.telemetry.updates_applied - epoch_completed * self.cycle_length
        if tail_updates > 0:
            due.append((epoch_completed + 1, now, self.state.snapshot(), self.current_weights))
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
        if telemetry_on:
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

    def _score(self, history: TrainingHistory, unscored: list[tuple]) -> None:
        """Add the ``(epoch, now, parameters, weights)`` rows to ``history``, scored in one call."""
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

    def _dispatch(self, client: EQCClientNode, now: float, sequence: int) -> _InFlight:
        """Assign the next task to ``client`` at time ``now``."""
        return self._dispatch_task(client, self._next_task(), now, sequence)

    def _dispatch_task(
        self, client: EQCClientNode, task: GradientTask, now: float, sequence: int
    ) -> _InFlight:
        """Dispatch one specific task, absorbing faults into heap events."""
        device = client.device_name

        def parked(kind: str, at: float, **extra) -> _InFlight:
            # A fault-tolerance event: no outcome, but it carries the task.
            return _InFlight(
                finish_time=at,
                sequence=sequence,
                outcome=None,
                client=client,
                kind=kind,
                task=task,
                **extra,
            )

        if self._health is not None and not self._health.allow(device, now):
            # Breaker open: park the dispatch until the recovery time; the
            # retry becomes the breaker's probe job.
            self._fault_stats["probes"] += 1
            return parked("probe", max(now, self._health.retry_at(device)))
        try:
            # The dispatch returns once the job's clock is known; the physics
            # runs later and is collected when this entry reaches the front.
            dispatched = client.dispatch_task(
                task, self.state.snapshot(), now, self.state.version
            )
        except FaultError as exc:
            # The failure is only *known* at its virtual detection time;
            # park it on the heap so breaker/retire bookkeeping happens in
            # event order, interleaved correctly with other completions.
            return parked("failure", max(now, exc.detect_time), failure=exc)
        job = dispatched.cloud_job
        job_id = self.register(dispatched)
        self.telemetry.jobs_dispatched += 1
        self.telemetry.circuits_executed += job.num_circuits
        if (
            self.dispatch_deadline is not None
            and job.finish_time - now > self.dispatch_deadline
        ):
            # Straggler: the turnaround blows the deadline, so the master
            # cuts the job at the cutoff instead of waiting (its outcome is
            # still collected there, then discarded).
            return parked("straggler", now + self.dispatch_deadline, job_id=job_id)
        return _InFlight(job.finish_time, sequence, outcome=None, client=client, job_id=job_id)

    # ------------------------------------------------------------------
    # graceful degradation
    # ------------------------------------------------------------------
    def _absorb_fault(
        self, item: _InFlight, now: float, sequence: int, pending: list
    ) -> int:
        """Process one non-job heap event; returns the updated sequence."""
        client = item.client
        device = client.device_name
        if item.kind == "probe":
            if client in self._live:
                sequence += 1
                heapq.heappush(
                    pending, self._dispatch_task(client, item.task, now, sequence)
                )
            else:
                self._orphans.append(item.task)
            return sequence
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
            return sequence
        sequence += 1
        heapq.heappush(pending, self._dispatch(client, now, sequence))
        return sequence

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
        self._record_fleet_event(
            "fleet_shrink", client.device_name, now, detail=reason
        )
        if _telemetry.enabled:
            _telemetry.registry.counter("eqc.fleet_shrink").inc()
            _telemetry.registry.gauge("eqc.live_devices").set(len(self._live))
        if len(self._live) < self.min_live_devices:
            raise FleetExhaustedError(
                f"only {len(self._live)} live devices remain "
                f"(min_live_devices={self.min_live_devices})",
                detect_time=now,
            )

    def _record_fleet_event(
        self, kind: str, device: str, now: float, detail: str = ""
    ) -> None:
        self._fleet_events.append(
            {"kind": kind, "device": device, "time": float(now), "detail": detail}
        )
        if _telemetry.enabled:
            _telemetry.registry.counter(
                "eqc.fault_events", kind=kind, device=device
            ).inc()

    def _weights_initialized(self) -> bool:
        return len(self._p_correct) == len(self._live)
