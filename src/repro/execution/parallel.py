"""True parallel EQC: per-device client steps in a multiprocessing pool.

The discrete-event master loop is deterministic given each job's finish time,
and each device's state — its endpoint RNG stream, ``free_at`` watermark, and
drift/calibration memoization — evolves only from the sequence of jobs that
device receives.  Those two facts make real multiprocess parallelism
compatible with bit-exact seeded histories:

* **Workers own whole per-device stacks.**  Each worker process rebuilds its
  assigned devices from their :class:`~repro.devices.qpu.QPUSpec` rows plus a
  private :class:`~repro.cloud.provider.CloudProvider` and
  :class:`~repro.core.client.EQCClientNode` per device.  Endpoint RNG streams
  are seeded ``(seed, spec.seed, 0xB0B)`` — independent of which provider
  instance hosts the endpoint — so a worker's device state is identical to
  the same device inside the sequential single-provider run.
* **Finish times are predictable before simulation.**  A job's finish time
  depends only on one queue-wait draw, the device's ``free_at``, and the
  drift-model duration arithmetic — never on the parameter vector or the
  simulated physics.  A worker therefore answers a ``submit`` with a cheap
  *timing preview* (computed against a deep copy of the endpoint RNG, leaving
  the real stream for the actual execution) and simulates the job afterwards,
  while the master already dispatches to other devices.
* **The master keeps the sequential control flow.**  Dispatch order, theta
  snapshots, weight refreshes and update order are unchanged; only the
  gradient computation moves off-process.  The heap needs nothing but the
  previewed finish times; the gradient is collected exactly at the moment the
  sequential loop would have consumed it.

Each worker runs a small listener thread that drains its inbox and answers
timing previews immediately while the worker's main thread executes the
simulation backlog — so a busy worker never stalls the master's dispatch.
The worker asserts that every executed job finishes exactly at its previewed
time; any mismatch (or any worker exception) is propagated to the master as
a ``RuntimeError``.

The scheduler path (``EQCConfig.uses_scheduler``) shares one event kernel
across all devices and therefore cannot be partitioned per worker;
:class:`~repro.core.ensemble.EQCConfig` rejects the combination up front.
"""

from __future__ import annotations

import dataclasses
import multiprocessing as mp
import os
import queue as queue_module
import threading
import traceback
from collections import deque
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..backends.cache import TranspileCache
from ..cloud.provider import CloudProvider
from ..cloud.queueing import QueueModel
from ..core.client import EQCClientNode, GradientOutcome
from ..core.objective import VQAObjective
from ..devices.qpu import QPU, QPUSpec
from ..faults.plan import FaultPlan
from ..telemetry import TELEMETRY as _telemetry
from ..vqa.tasks import GradientTask

__all__ = ["WorkerContext", "WorkerJobError", "ParallelEnsembleExecutor"]

#: Seconds between liveness checks while waiting on worker messages.
_POLL_SECONDS = 0.1

#: Seconds to wait for workers to acknowledge a stop before terminating them.
_SHUTDOWN_GRACE_SECONDS = 5.0

#: Exit code of an injected worker crash (distinguishes chaos from real
#: deaths: only this code is eligible for respawn-and-replay recovery).
_CRASH_EXIT_CODE = 47

#: Default seconds a worker may stay silent while the master waits on it.
_DEFAULT_RESPONSE_TIMEOUT_SECONDS = 600.0


class WorkerJobError(RuntimeError):
    """A worker raised while serving a job; re-raised at the master.

    Carries the structured coordinates of the failure — ``worker_id``,
    ``job_id`` and the original exception type name — on top of the full
    worker-side traceback in the message.
    """

    def __init__(
        self, message: str, *, worker_id: int, job_id: int, exc_type: str
    ) -> None:
        super().__init__(message)
        self.worker_id = int(worker_id)
        self.job_id = int(job_id)
        self.exc_type = str(exc_type)


@dataclass(frozen=True)
class WorkerContext:
    """Everything one worker process needs to rebuild its device stacks.

    The context crosses the process boundary once, at pool start-up; it must
    stay picklable under the ``spawn`` start method (the pickle round-trip
    tests pin this for the payload types).
    """

    objective: VQAObjective
    qpu_specs: tuple[QPUSpec, ...]
    client_names: tuple[str, ...]
    queue_models: dict[str, QueueModel] | None
    seed: int
    shots: int
    worker_id: int
    telemetry_enabled: bool = False
    #: Injected crash points: job counts after which this worker kills
    #: itself (``os._exit``) before shipping the outcome.
    crash_after: tuple[int, ...] = ()
    #: Crash points already fired in a previous incarnation — a respawned
    #: worker replays its job log without re-dying at the same point.
    fired_crashes: tuple[int, ...] = ()


class _WorkerRuntime:
    """The per-process device stacks plus the timing-preview arithmetic."""

    def __init__(self, context: WorkerContext) -> None:
        self.worker_id = context.worker_id
        self.objective = context.objective
        qpus = [QPU(spec) for spec in context.qpu_specs]
        #: The worker's private provider: endpoint RNG seeds derive from
        #: (seed, spec.seed) only, so per-device streams match the sequential
        #: run's single shared provider exactly.
        self.provider = CloudProvider(
            qpus,
            queue_models=context.queue_models,
            seed=context.seed,
            shots=context.shots,
        )
        transpile_cache = TranspileCache()
        self.clients: dict[str, EQCClientNode] = {
            qpu.name: EQCClientNode(
                objective=context.objective,
                qpu=qpu,
                provider=self.provider,
                shots=context.shots,
                name=name,
                transpile_cache=transpile_cache,
            )
            for qpu, name in zip(qpus, context.client_names)
        }

    # ------------------------------------------------------------------
    def predict_finish(
        self, device_name: str, num_circuits: int, submit_time: float
    ) -> float:
        """The exact finish time ``provider.submit`` will produce.

        The provider previews the service start (one queue-wait draw against
        a *copy* of the endpoint stream, so the real stream is consumed by
        the actual execution) and the device's own batch clock prices the
        circuits — the same two calls the submit itself makes; the worker
        still asserts bitwise equality afterwards.
        """
        start = self.provider.preview_start_time(device_name, submit_time)
        _, _, elapsed = self.provider.qpu(device_name).batch_clock(num_circuits, start)
        return start + elapsed

    def execute(
        self,
        device_name: str,
        task: GradientTask,
        theta: np.ndarray,
        submit_time: float,
        theta_version: int,
        num_circuits: int,
        predicted_finish: float,
    ) -> GradientOutcome:
        """Run one client step and verify the previewed finish time.

        The job is built here, off the master's critical path — the timing
        preview only needed the circuit *count*.
        """
        job_spec = self.objective.build_job(task, theta)
        if job_spec.num_circuits != num_circuits:
            raise RuntimeError(
                f"worker {self.worker_id}: circuits_per_job promised "
                f"{num_circuits} circuits but build_job produced "
                f"{job_spec.num_circuits} on {device_name!r}"
            )
        client = self.clients[device_name]
        outcome = client.execute_task(
            task,
            theta=theta,
            submit_time=submit_time,
            theta_version=theta_version,
            job_spec=job_spec,
        )
        if outcome.finish_time != predicted_finish:
            raise RuntimeError(
                f"worker {self.worker_id}: predicted finish time "
                f"{predicted_finish!r} does not match executed finish time "
                f"{outcome.finish_time!r} on {device_name!r}"
            )
        return outcome

    def utilization_report(self) -> dict[str, dict[str, float]]:
        return self.provider.utilization_report()


def _worker_main(context: WorkerContext, inbox, outbox) -> None:
    """Worker process body: preview timings eagerly, simulate in order.

    A daemon listener thread drains the inbox: for a job it answers the
    timing preview immediately (the preview needs only the circuit count,
    via :meth:`VQAObjective.circuits_per_job`) and appends the work item to
    a backlog the main thread consumes FIFO — building the job and the
    simulation itself both stay off the master's critical path.  Control
    messages (``report``/``stop``) travel through the same backlog, so they
    serialize after every already-accepted job.
    """
    # A fork-started worker inherits the parent's telemetry state wholesale —
    # including already-recorded events, which would ship back duplicated.
    # Reset unconditionally, then adopt the master's enabled decision.
    _telemetry.reset()
    if context.telemetry_enabled:
        _telemetry.enable()
        _telemetry.set_process(context.worker_id + 1, f"worker {context.worker_id}")
    else:
        _telemetry.disable()

    try:
        runtime = _WorkerRuntime(context)
    except Exception as exc:
        outbox.put(
            ("error", -1, context.worker_id, type(exc).__name__, traceback.format_exc())
        )
        return

    backlog: deque[tuple] = deque()
    ready = threading.Condition()

    def _enqueue(item: tuple) -> None:
        with ready:
            backlog.append(item)
            ready.notify()

    def _listen() -> None:
        while True:
            try:
                message = inbox.get()
            except (EOFError, OSError):
                _enqueue(("stop",))
                return
            kind = message[0]
            if kind == "job":
                _, job_id, device, task, theta, submit_time, theta_version = message
                try:
                    num_circuits = runtime.objective.circuits_per_job(task)
                    predicted = runtime.predict_finish(
                        device, num_circuits, submit_time
                    )
                except Exception as exc:
                    outbox.put(
                        (
                            "error",
                            job_id,
                            context.worker_id,
                            type(exc).__name__,
                            traceback.format_exc(),
                        )
                    )
                    _enqueue(("stop",))
                    return
                outbox.put(("timing", job_id, predicted, num_circuits))
                _enqueue(
                    (
                        "job",
                        job_id,
                        device,
                        task,
                        theta,
                        submit_time,
                        theta_version,
                        num_circuits,
                        predicted,
                    )
                )
            elif kind == "replay":
                # Replayed job (post-crash recovery): the eager preview would
                # read endpoint state that prior replayed jobs haven't
                # re-established yet, so timing is computed by the main
                # thread in execution order instead.
                _enqueue(message)
            else:
                _enqueue(message)
                if kind == "stop":
                    return

    threading.Thread(target=_listen, daemon=True).start()

    #: Unfired injected crash points, ordered; compared against the count of
    #: jobs this incarnation has executed.
    pending_crashes = sorted(
        point for point in context.crash_after if point not in context.fired_crashes
    )
    jobs_executed = 0

    while True:
        with ready:
            while not backlog:
                ready.wait()
            item = backlog.popleft()
        kind = item[0]
        if kind == "stop":
            outbox.put(("stopped", runtime.worker_id))
            return
        if kind == "report":
            outbox.put(("report", runtime.worker_id, runtime.utilization_report()))
            continue
        if kind == "telemetry":
            outbox.put(
                (
                    "telemetry",
                    runtime.worker_id,
                    _telemetry.registry.snapshot(),
                    _telemetry.tracer.export_payload(),
                )
            )
            continue
        if kind == "replay":
            _, job_id, device, task, theta, submit_time, theta_version = item
            try:
                count = runtime.objective.circuits_per_job(task)
                predicted = runtime.predict_finish(device, count, submit_time)
            except Exception as exc:
                outbox.put(
                    (
                        "error",
                        job_id,
                        context.worker_id,
                        type(exc).__name__,
                        traceback.format_exc(),
                    )
                )
                return
            outbox.put(("timing", job_id, predicted, count))
        else:
            _, job_id, device, task, theta, submit_time, theta_version, count, predicted = item
        try:
            outcome = runtime.execute(
                device, task, theta, submit_time, theta_version, count, predicted
            )
        except Exception as exc:
            outbox.put(
                (
                    "error",
                    job_id,
                    context.worker_id,
                    type(exc).__name__,
                    traceback.format_exc(),
                )
            )
            return
        jobs_executed += 1
        if pending_crashes and jobs_executed >= pending_crashes[0]:
            # Injected crash: die *before* the outcome ships, so recovery
            # always has work to replay (never just the happy path).
            os._exit(_CRASH_EXIT_CODE)
        outbox.put(("outcome", job_id, outcome))


class ParallelEnsembleExecutor:
    """Runs per-device EQC client steps in a pool of worker processes.

    Devices are assigned round-robin to ``num_workers`` workers (capped at
    the fleet size).  :meth:`submit` returns as soon as the owning worker has
    previewed the job's finish time; :meth:`collect` blocks until the
    worker's simulation of that job lands.  Because a device's next job is
    only submitted after its previous outcome was collected, per-device
    operations are strictly serialized and every device evolves exactly as
    in the sequential loop.
    """

    def __init__(
        self,
        objective: VQAObjective,
        qpus: Sequence[QPU],
        *,
        num_workers: int,
        queue_models: Mapping[str, QueueModel] | None = None,
        seed: int = 0,
        shots: int = 8192,
        client_names: Sequence[str] | None = None,
        start_method: str | None = None,
        telemetry: bool | None = None,
        fault_plan: FaultPlan | None = None,
        response_timeout_seconds: float | None = _DEFAULT_RESPONSE_TIMEOUT_SECONDS,
    ) -> None:
        qpus = list(qpus)
        if not qpus:
            raise ValueError("the executor needs at least one device")
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = min(int(num_workers), len(qpus))
        self.device_names = tuple(qpu.name for qpu in qpus)
        if client_names is None:
            client_names = [f"client_{name}" for name in self.device_names]
        if len(client_names) != len(qpus):
            raise ValueError("client_names must align with the fleet")
        if response_timeout_seconds is not None and response_timeout_seconds <= 0:
            raise ValueError("response_timeout_seconds must be positive")
        self.response_timeout_seconds = response_timeout_seconds
        self._fault_plan = fault_plan if fault_plan is not None else FaultPlan()
        for crash in self._fault_plan.worker_crashes:
            if crash.worker_id >= self.num_workers:
                raise ValueError(
                    f"crash targets worker {crash.worker_id} but the pool has "
                    f"only {self.num_workers} workers"
                )

        #: Whether workers collect telemetry (default: mirror the master's
        #: state at construction time, so ``TELEMETRY.enable()`` before
        #: building the executor covers the whole fleet).
        self.telemetry_enabled = (
            _telemetry.enabled if telemetry is None else bool(telemetry)
        )

        self._mp_context = (
            mp.get_context(start_method) if start_method else mp.get_context()
        )
        self._outbox = self._mp_context.Queue()
        self._device_worker: dict[str, int] = {}
        assignments: list[list[tuple[QPUSpec, str]]] = [
            [] for _ in range(self.num_workers)
        ]
        for index, (qpu, client_name) in enumerate(zip(qpus, client_names)):
            worker_id = index % self.num_workers
            assignments[worker_id].append((qpu.spec, str(client_name)))
            self._device_worker[qpu.name] = worker_id

        self._contexts: list[WorkerContext] = []
        self._inboxes: list = []
        self._processes: list = []
        for worker_id, assigned in enumerate(assignments):
            self._contexts.append(
                WorkerContext(
                    objective=objective,
                    qpu_specs=tuple(spec for spec, _ in assigned),
                    client_names=tuple(name for _, name in assigned),
                    queue_models=dict(queue_models) if queue_models else None,
                    seed=int(seed),
                    shots=int(shots),
                    worker_id=worker_id,
                    telemetry_enabled=self.telemetry_enabled,
                    crash_after=self._fault_plan.crash_points_for(worker_id),
                )
            )
            self._inboxes.append(None)
            self._processes.append(None)
            self._spawn(worker_id)

        self._next_job_id = 0
        self._timings: dict[int, tuple[float, int]] = {}
        self._outcomes: dict[int, GradientOutcome] = {}
        self._reports: dict[int, dict] = {}
        self._telemetry_payloads: dict[int, tuple[dict, dict]] = {}
        self._stopped: set[int] = set()
        self._closed = False
        #: Every job message ever sent, per worker, in send order — the
        #: replay script for a respawned worker (per-device state is a pure
        #: function of the job sequence, so replay reconstructs it exactly).
        self._job_log: list[list[tuple]] = [[] for _ in range(self.num_workers)]
        #: Job ids whose timing preview / outcome was already consumed, so a
        #: replay's duplicate messages are dropped on arrival.
        self._previewed: set[int] = set()
        self._collected: set[int] = set()
        self._job_worker: dict[int, int] = {}
        #: Injected-crash recoveries, in occurrence order (metadata/benches).
        self.crash_events: list[dict] = []

    def _spawn(self, worker_id: int) -> None:
        """(Re)start one worker process from its stored context."""
        inbox = self._mp_context.Queue()
        process = self._mp_context.Process(
            target=_worker_main,
            args=(self._contexts[worker_id], inbox, self._outbox),
            daemon=True,
        )
        process.start()
        self._inboxes[worker_id] = inbox
        self._processes[worker_id] = process

    # ------------------------------------------------------------------
    def __enter__(self) -> "ParallelEnsembleExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    def submit(
        self,
        device_name: str,
        task: GradientTask,
        theta: np.ndarray,
        submit_time: float,
        theta_version: int,
    ) -> tuple[int, float, int]:
        """Dispatch one client step; returns ``(job_id, finish_time, num_circuits)``.

        Blocks only until the owning worker answers the timing preview — the
        simulation itself proceeds in the background.
        """
        if device_name not in self._device_worker:
            raise KeyError(f"unknown device {device_name!r}")
        job_id = self._next_job_id
        self._next_job_id += 1
        worker_id = self._device_worker[device_name]
        message = (
            "job",
            job_id,
            device_name,
            task,
            np.asarray(theta, dtype=float),
            float(submit_time),
            int(theta_version),
        )
        self._job_log[worker_id].append(message)
        self._job_worker[job_id] = worker_id
        self._inboxes[worker_id].put(message)
        self._wait(
            lambda: job_id in self._timings,
            waiting_for=f"timing preview from worker {worker_id} "
            f"for job {job_id} on {device_name!r}",
        )
        finish_time, num_circuits = self._timings.pop(job_id)
        return job_id, finish_time, num_circuits

    def collect(self, job_id: int) -> GradientOutcome:
        """Block until the worker's simulation of ``job_id`` completes."""
        worker_id = self._job_worker.get(job_id)
        self._wait(
            lambda: job_id in self._outcomes,
            waiting_for=f"outcome of job {job_id} from worker {worker_id}",
        )
        self._collected.add(job_id)
        return self._outcomes.pop(job_id)

    def utilization_report(self) -> dict[str, dict[str, float]]:
        """Merged per-device utilization, in fleet order.

        Each device's record lives in exactly one worker and evolves
        identically to the sequential provider's endpoint, so the merged
        report is numerically identical to
        :meth:`CloudProvider.utilization_report`.
        """
        self._reports.clear()
        for inbox in self._inboxes:
            inbox.put(("report",))
        self._wait(lambda: len(self._reports) == self.num_workers)
        merged: dict[str, dict[str, float]] = {}
        for report in self._reports.values():
            merged.update(report)
        return {name: merged[name] for name in self.device_names if name in merged}

    def collect_telemetry(self, registry=None, tracer=None) -> None:
        """Fold every worker's metrics and spans into the master's telemetry.

        Merging happens in worker-id order regardless of response arrival
        order, so the merged registry is deterministic (gauge overwrites are
        order-dependent; counters and histograms are commutative sums).
        No-op when the executor was built with telemetry off.
        """
        if not self.telemetry_enabled or self._closed:
            return
        if registry is None:
            registry = _telemetry.registry
        if tracer is None:
            tracer = _telemetry.tracer
        self._telemetry_payloads.clear()
        for inbox in self._inboxes:
            inbox.put(("telemetry",))
        self._wait(lambda: len(self._telemetry_payloads) == self.num_workers)
        for worker_id in sorted(self._telemetry_payloads):
            snapshot, trace_payload = self._telemetry_payloads[worker_id]
            registry.merge_snapshot(snapshot)
            tracer.ingest(trace_payload)

    def shutdown(self) -> None:
        """Stop every worker; safe to call more than once (and on errors)."""
        if self._closed:
            return
        self._closed = True
        for inbox in self._inboxes:
            try:
                inbox.put(("stop",))
            except (ValueError, OSError):
                pass
        deadline = _SHUTDOWN_GRACE_SECONDS / _POLL_SECONDS
        while len(self._stopped) < self.num_workers and deadline > 0:
            try:
                message = self._outbox.get(timeout=_POLL_SECONDS)
            except queue_module.Empty:
                deadline -= 1
                if all(not p.is_alive() for p in self._processes):
                    break
                continue
            if message[0] != "error":
                self._route(message)
        for process in self._processes:
            process.join(timeout=_SHUTDOWN_GRACE_SECONDS)
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        for channel in [self._outbox, *self._inboxes]:
            channel.close()
            channel.cancel_join_thread()

    # ------------------------------------------------------------------
    def _wait(self, predicate, *, waiting_for: str = "") -> None:
        """Pump worker messages until ``predicate`` holds.

        A worker that died with the injected-crash exit code and has an
        unfired crash point is respawned and its job log replayed; any other
        death — or a worker silent past ``response_timeout_seconds`` — raises
        a ``RuntimeError`` naming the worker.  Structured job errors are
        re-raised as :class:`WorkerJobError`.
        """
        if self._closed:
            raise RuntimeError("the executor is shut down")
        silent_seconds = 0.0
        while not predicate():
            try:
                message = self._outbox.get(timeout=_POLL_SECONDS)
            except queue_module.Empty:
                for worker_id, process in enumerate(self._processes):
                    if not process.is_alive() and worker_id not in self._stopped:
                        if self._can_respawn(worker_id):
                            self._respawn(worker_id)
                        else:
                            raise RuntimeError(
                                f"parallel worker {worker_id} died "
                                f"(exit code {process.exitcode})"
                            )
                silent_seconds += _POLL_SECONDS
                if (
                    self.response_timeout_seconds is not None
                    and silent_seconds >= self.response_timeout_seconds
                ):
                    detail = waiting_for or "a worker response"
                    raise RuntimeError(
                        f"timed out after {self.response_timeout_seconds:.0f}s "
                        f"waiting for {detail} (worker unresponsive)"
                    )
                continue
            silent_seconds = 0.0
            self._route(message)

    def _can_respawn(self, worker_id: int) -> bool:
        """Only an injected crash with an unfired crash point is recoverable."""
        process = self._processes[worker_id]
        if process.exitcode != _CRASH_EXIT_CODE:
            return False
        context = self._contexts[worker_id]
        return any(
            point not in context.fired_crashes for point in context.crash_after
        )

    def _respawn(self, worker_id: int) -> None:
        """Restart a crashed worker and replay its full job log.

        The smallest unfired crash point is marked fired in the replacement
        context (the crash that just happened), so the new incarnation
        replays straight through it.  Replayed jobs regenerate timing and
        outcome messages; ``_route`` drops the ones already consumed.
        """
        context = self._contexts[worker_id]
        fired = min(
            point for point in context.crash_after
            if point not in context.fired_crashes
        )
        context = dataclasses.replace(
            context, fired_crashes=context.fired_crashes + (fired,)
        )
        self._contexts[worker_id] = context
        self.crash_events.append({"worker_id": worker_id, "after_jobs": fired})
        if self.telemetry_enabled:
            _telemetry.registry.counter("faults.worker_crashes").inc()
            _telemetry.registry.counter("faults.worker_respawns").inc()
        self._spawn(worker_id)
        for message in self._job_log[worker_id]:
            self._inboxes[worker_id].put(("replay", *message[1:]))

    def _route(self, message: tuple) -> None:
        kind = message[0]
        if kind == "timing":
            _, job_id, finish_time, num_circuits = message
            if job_id in self._previewed:
                return  # duplicate from a replayed job
            self._previewed.add(job_id)
            self._timings[job_id] = (float(finish_time), int(num_circuits))
        elif kind == "outcome":
            _, job_id, outcome = message
            if job_id in self._collected or job_id in self._outcomes:
                return  # duplicate from a replayed job
            self._outcomes[job_id] = outcome
        elif kind == "report":
            _, worker_id, report = message
            self._reports[worker_id] = report
        elif kind == "telemetry":
            _, worker_id, snapshot, trace_payload = message
            self._telemetry_payloads[worker_id] = (snapshot, trace_payload)
        elif kind == "stopped":
            self._stopped.add(message[1])
        elif kind == "error":
            _, job_id, worker_id, exc_type, text = message
            raise WorkerJobError(
                f"parallel worker {worker_id} failed while serving job "
                f"{job_id} ({exc_type}):\n{text}",
                worker_id=worker_id,
                job_id=job_id,
                exc_type=exc_type,
            )
        else:  # pragma: no cover - defensive against protocol drift
            raise RuntimeError(f"unknown worker message {kind!r}")
