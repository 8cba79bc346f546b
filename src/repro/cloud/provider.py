"""The simulated cloud provider: job submission, queues, utilization.

The :class:`CloudProvider` is the piece of the substrate that stands in for
the IBMQ service.  Each backend device keeps a serial work queue, and every
job runs through one service loop (:meth:`CloudProvider.submit`: retries,
fault injection, deadlines, bookkeeping) over one of two clocks that decide
when an attempt reaches the device head:

* **statistical** (default) — a job submitted at time *t* waits for
  (a) whatever the device is still executing and (b) a stochastic congestion
  delay from the device's :class:`~repro.cloud.queueing.QueueModel`
  (one lognormal draw from the endpoint's stream; other users are a
  distribution, and seeded histories are bit-exact with the pre-scheduler
  code);
* **event kernel** — when constructed with a
  :class:`~repro.sched.scheduler.CloudScheduler`, jobs are submitted into
  the shared discrete-event kernel where they compete with background tenant
  traffic for capacity-1 devices under a pluggable scheduling policy, and
  queue delays *emerge* from contention, calibration downtime and injected
  outages.

Either way the provider records per-device busy time so the utilization
imbalance the paper motivates EQC with can be quantified (see
:meth:`CloudProvider.utilization_report`).
"""

from __future__ import annotations

import math
from array import array
from copy import copy
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

import numpy as np

from .._fields import require
from .._streams import generator_state, restore_generator
from ..backends.noisy import NoisyBackend
from ..circuit.circuit import QuantumCircuit
from ..circuit.sweep import ParameterSweep
from ..devices.qpu import QPU, CircuitFootprint, resolve_batches
from ..faults.errors import (
    DeviceOutageError,
    FaultError,
    JobDeadlineExceeded,
    JobRetriesExhausted,
)
from ..faults.retry import DEFAULT_RETRY_POLICY, RetryPolicy
from ..telemetry import TELEMETRY as _telemetry
from .job import CloudJob, JobStatus
from .queueing import QueueModel, queue_model_for

if TYPE_CHECKING:  # pragma: no cover - cloud never imports sched at runtime
    from ..faults.injector import FaultInjector
    from ..sched.scheduler import CloudScheduler

__all__ = ["DeviceEndpoint", "CloudProvider", "UtilizationRecord"]

#: Without fault injection nothing can bomb or be delayed: one attempt.
_SINGLE_ATTEMPT = RetryPolicy(max_attempts=1)

@dataclass
class UtilizationRecord:
    """Aggregate usage statistics for one device."""

    device_name: str
    jobs_completed: int = 0
    busy_seconds: float = 0.0
    queued_seconds: float = 0.0
    last_finish_time: float = 0.0

    def utilization(self, horizon_seconds: float) -> float:
        """Busy fraction of a time horizon (0 when the horizon is empty)."""
        if horizon_seconds <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / horizon_seconds)


class DeviceEndpoint:
    """One device's serial queue inside the provider.

    The endpoint pairs the queue/utilization bookkeeping with the
    :class:`~repro.backends.noisy.NoisyBackend` that runs batches on the
    device: the clock half at submit, the physics parked for the wave.
    """

    def __init__(self, qpu: QPU, queue_model: QueueModel, seed: int) -> None:
        self.qpu = qpu
        self.queue_model = queue_model
        self.backend = NoisyBackend(qpu)
        self.rng = np.random.default_rng((seed, qpu.spec.seed, 0xB0B))
        #: Simulation time at which the provider's last job released the device.
        self.free_at = 0.0
        self.record = UtilizationRecord(device_name=qpu.name)


class CloudProvider:
    """A multi-device quantum cloud with per-device serial queues."""

    def __init__(
        self,
        qpus: Iterable[QPU],
        queue_models: Mapping[str, QueueModel] | None = None,
        seed: int = 0,
        shots: int = 8192,
        scheduler: "CloudScheduler | None" = None,
        fault_injector: "FaultInjector | None" = None,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        qpus = list(qpus)
        if not qpus:
            raise ValueError("the provider needs at least one device")
        names = [q.name for q in qpus]
        if len(set(names)) != len(names):
            raise ValueError("duplicate device names in the fleet")
        require(self, "seed", seed, low=0, integer=True)
        require(self, "shots", shots, low=1, integer=True)
        self._endpoints: dict[str, DeviceEndpoint] = {}
        for qpu in qpus:
            model = (
                queue_models[qpu.name]
                if queue_models is not None and qpu.name in queue_models
                else queue_model_for(qpu.name)
            )
            self._endpoints[qpu.name] = DeviceEndpoint(qpu, model, seed)
        self.default_shots = int(shots)
        #: Next job id (a plain int rather than itertools.count so checkpoint
        #: snapshots can capture and restore the counter).
        self._next_job_id = 0
        #: Physics halves not simulated yet, in submit order (:meth:`resolve`).
        self._parked: list[CloudJob] = []
        self.scheduler = scheduler
        #: Fault injection: None (the default) leaves the submit loop a
        #: single attempt that consumes no injector stream.
        self._faults = (
            fault_injector
            if fault_injector is not None and fault_injector.enabled
            else None
        )
        self._retry_policy = (
            _SINGLE_ATTEMPT if self._faults is None else retry_policy or DEFAULT_RETRY_POLICY
        )
        #: Devices confirmed permanently down (fail-fast on later submits).
        self.dead_devices: set[str] = set()
        #: Plain-int fault accounting, maintained whenever faults are active
        #: (independent of the telemetry switch, so chaos determinism can be
        #: asserted without enabling collection).
        self.fault_counters: dict[str, int] = {
            "transient_failures": 0,
            "retries": 0,
            "outage_deferrals": 0,
            "job_failures": 0,
            "result_delays": 0,
            "calibration_blackouts": 0,
        }
        if scheduler is not None:
            for endpoint in self._endpoints.values():
                scheduler.register_device(endpoint.qpu, endpoint.queue_model)

    # ------------------------------------------------------------------
    @property
    def device_names(self) -> tuple[str, ...]:
        return tuple(self._endpoints.keys())

    def qpu(self, device_name: str) -> QPU:
        """The device object behind one endpoint."""
        return self._endpoint(device_name).qpu

    def _endpoint(self, device_name: str) -> DeviceEndpoint:
        if device_name not in self._endpoints:
            raise KeyError(f"unknown device {device_name!r}")
        return self._endpoints[device_name]

    def _new_job_id(self) -> int:
        job_id = self._next_job_id
        self._next_job_id += 1
        return job_id

    # ------------------------------------------------------------------
    # checkpoint support
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Everything that evolves during training, as nested plain data.

        Per endpoint: the RNG bit-generator state (queue waits + measurement
        shots draw from it), the device's own fallback stream, the virtual
        clock, and the utilization record; provider-wide: the job-id
        counter, dead devices, and fault counters.  This is the whole state
        of the statistical clock; on the kernel clock the queues and pending
        events live inside the event kernel, which is not checkpointable
        (config validation rejects checkpointing with a scheduler before a
        snapshot is ever taken).  Parked physics stays parked (its shots are
        still undrawn in these streams) and is captured per job by
        :meth:`snapshot_job`.  This view is what the training goldens hash
        and tests compare; a checkpoint stores the same state as the flat
        rows of :meth:`snapshot_rows`.
        """
        return {
            "next_job_id": self._next_job_id,
            "dead_devices": sorted(self.dead_devices),
            "fault_counters": dict(self.fault_counters),
            "endpoints": {
                name: {
                    "rng": endpoint.rng.bit_generator.state,
                    "qpu_rng": endpoint.qpu._rng.bit_generator.state,
                    "free_at": endpoint.free_at,
                    "record": {
                        "jobs_completed": endpoint.record.jobs_completed,
                        "busy_seconds": endpoint.record.busy_seconds,
                        "queued_seconds": endpoint.record.queued_seconds,
                        "last_finish_time": endpoint.record.last_finish_time,
                    },
                }
                for name, endpoint in self._endpoints.items()
            },
        }

    def snapshot_rows(self) -> dict:
        """:meth:`snapshot_state` as a checkpoint stores it: one row per endpoint
        (name, stream position, jobs completed, and the device's own stream's
        position — ``None`` while nothing has read that stream, which is then
        still derived from the spec seed at first use) and one float column of
        four figures per endpoint (``free_at``, busy, queued and last finish
        seconds)."""
        endpoints = self._endpoints.values()
        return {
            "next_job_id": self._next_job_id,
            "dead_devices": sorted(self.dead_devices),
            "fault_counters": self.fault_counters,
            "endpoints": [
                [
                    endpoint.qpu.name,
                    *generator_state(endpoint.rng),
                    endpoint.record.jobs_completed,
                    generator_state(endpoint.qpu._rng) if "_rng" in vars(endpoint.qpu) else None,
                ]
                for endpoint in endpoints
            ],
            "clocks": array("d", [
                value
                for endpoint in endpoints
                for value in (
                    endpoint.free_at,
                    endpoint.record.busy_seconds,
                    endpoint.record.queued_seconds,
                    endpoint.record.last_finish_time,
                )
            ]),
        }

    def restore_rows(self, data: Mapping) -> None:
        """Restore :meth:`snapshot_rows` into this (fresh) provider."""
        self._next_job_id = data["next_job_id"]
        self.dead_devices = set(data["dead_devices"])
        self.fault_counters = dict(data["fault_counters"])
        clocks = data["clocks"]
        for row, (name, *stream, jobs_completed, device_stream) in enumerate(data["endpoints"]):
            endpoint = self._endpoint(name)
            restore_generator(endpoint.rng, stream)
            if device_stream is not None:
                restore_generator(endpoint.qpu._rng, device_stream)
            record = endpoint.record
            record.jobs_completed = jobs_completed
            (
                endpoint.free_at,
                record.busy_seconds,
                record.queued_seconds,
                record.last_finish_time,
            ) = clocks[4 * row : 4 * row + 4]

    def snapshot_job(self, job: CloudJob) -> tuple[list, tuple[float, float, float]]:
        """A served job whose physics is still parked: ``[job_id, device_name,
        shots, attempts, position]`` and its submit, start and finish times.

        No spec, result or stream is serialized: the clock half is arithmetic
        on the device and ``start_time``, the circuits are the submitter's to
        rebuild, and the shots are still undrawn in the endpoint's stream.
        """
        return (
            [job.job_id, job.device_name, job.shots, job.attempts, self._parked.index(job)],
            (job.submit_time, job.start_time, job.finish_time),
        )

    def restore_job(
        self,
        row: Sequence,
        times: Sequence[float],
        circuits: Sequence[QuantumCircuit] | ParameterSweep,
        footprint: CircuitFootprint,
    ) -> CloudJob:
        """Re-park a :meth:`snapshot_job` job (jobs go back in ``position`` order).

        Its clock half re-runs at the captured start time through the call a
        submit makes — no RNG — so the parked job equals the captured one
        field for field and draws the same counts from the restored stream.
        """
        job_id, device_name, shots, attempts, position = row
        if len(self._parked) != position:
            raise ValueError(
                f"job {job_id} was parked at {position}: it cannot "
                f"be restored at {len(self._parked)}"
            )
        job = CloudJob(
            job_id, device_name, len(circuits), shots, *times, JobStatus.DONE, attempts,
            resolve=self.resolve,
        )
        self._execute_batch(self._endpoint(device_name), job, circuits, footprint, job.start_time)
        return job

    def resolve(self) -> None:
        """Run the physics of every parked job, as one stacked pass.

        A job executes **clock at submit, physics per wave**: all the service
        loop needs (start, durations, finish, fault draws, deadlines,
        utilization) is arithmetic, final when ``submit`` returns; simulation
        and shots are parked, and everything parked fleet-wide resolves

        * the first time a parked job's counts are read (``CloudJob.results``
          or a training client's collect);
        * when an endpoint with parked physics is submitted to again, so its
          stream is drawn wait -> shots -> wait as one-at-a-time execution
          draws it, and a job nobody reads (a straggler, a kernel service cut
          by an outage and re-entered) still draws its shots, in submit order;
        * by the master at the end of ``train``.

        Nothing resolves because a checkpoint is due: a job still parked is
        stored parked (:meth:`snapshot_job`).

        Jobs sharing templates run as one engine pass, each drawing its shots
        from its own endpoint's stream (:func:`~repro.devices.qpu.resolve_batches`);
        a pass that raises reaches the reader with every job still parked.
        """
        parked = self._parked
        if parked and _telemetry.enabled:
            # How wide the wave is (``qpu.batch_size`` is circuits per job).
            registry = _telemetry.registry
            registry.histogram(
                "cloud.resolve_jobs", bounds=(1, 2, 4, 8, 16, 32, 64)
            ).observe(len(parked))
            registry.counter("cloud.resolve_rows").inc(sum(job.num_circuits for job in parked))
        resolve_batches(parked)

    # ------------------------------------------------------------------
    def submit(
        self,
        device_name: str,
        circuits: Sequence[QuantumCircuit] | ParameterSweep,
        footprint: CircuitFootprint,
        now: float,
        shots: int | None = None,
    ) -> CloudJob:
        """Submit a batch of circuits and serve it to completion on the clock.

        The batch is bound circuits (the baselines) or an unbound
        :class:`~repro.circuit.sweep.ParameterSweep` (an EQC gradient job);
        either form of one job yields identical results, timing and RNG
        state.  The returned job is ``DONE`` with its timing populated and its
        physics parked (``job.results`` resolves it, see :meth:`resolve`);
        callers treat ``job.finish_time`` as the moment the results become
        visible, which is how asynchrony is realized on the virtual clock.

        Every job runs one attempt loop, once without fault injection.
        Failures cost *virtual* time: every
        :class:`~repro.faults.errors.FaultError` raised here carries the time
        the caller learns about it and the job, ``FAILED`` with its ``error``.
        """
        endpoint, job = self._open_job(device_name, circuits, now, shots)
        arrival, first_failure = job.submit_time, None
        for attempt in range(1, self._retry_policy.max_attempts + 1):
            job.attempts = attempt
            start_time, elapsed = self._attempt(endpoint, job, circuits, footprint, arrival)
            if job.durations is not None:
                return self._complete(endpoint, job, start_time, elapsed, first_failure)
            if first_failure is None:
                first_failure = start_time
            arrival = self._backoff(job, start_time)
        raise AssertionError("unreachable: the attempt loop exits via return/raise")

    def _open_job(
        self,
        device_name: str,
        circuits: Sequence[QuantumCircuit] | ParameterSweep,
        now: float,
        shots: int | None,
    ) -> tuple[DeviceEndpoint, CloudJob]:
        """Check a submission and open its job; a dead device fails it fast."""
        num_circuits = len(circuits)
        if not num_circuits:
            raise ValueError("a job needs at least one circuit")
        endpoint = self._endpoint(device_name)
        shots = int(shots) if shots is not None else self.default_shots
        if shots < 1:
            raise ValueError(f"shots must be >= 1 (got {shots})")
        now = float(now)
        if not 0.0 <= now < math.inf:
            raise ValueError(f"now must be a finite, non-negative simulation time (got {now!r})")
        job = CloudJob(self._new_job_id(), device_name, num_circuits, shots, now, resolve=self.resolve)
        if device_name in self.dead_devices:
            raise self._fail(job, DeviceOutageError, "device permanently down", now, permanent=True)
        if any(parked.rng is endpoint.rng for parked in self._parked):
            # This endpoint's stream still owes an earlier job its shots.
            self.resolve()
        return endpoint, job

    def _attempt(
        self,
        endpoint: DeviceEndpoint,
        job: CloudJob,
        circuits: Sequence[QuantumCircuit] | ParameterSweep,
        footprint: CircuitFootprint,
        arrival: float,
    ) -> tuple[float, float]:
        """One attempt of ``job``: its start time and the device-seconds held, from
        the clock (:meth:`_serve`).  An attempt that bombs at the device head
        (the plan's transient failure) holds the device for zero seconds and
        leaves ``job`` unexecuted (``durations`` is ``None``); the physics
        stream is drawn only by an attempt that executes, as in a fault-free run."""
        faults, parked = self._faults, self._parked

        def service(start_time: float) -> float:
            # A service cut by an outage re-enters with a fresh start time: the
            # cut run stays parked as a copy (its shots are still drawn first),
            # the job is unexecuted again and the failure draw is made afresh.
            if job.durations is not None:
                parked[parked.index(job)] = copy(job)
                job.durations = None
            if faults is not None and faults.transient_failure(job.device_name):
                return 0.0
            job.status = JobStatus.RUNNING
            return self._execute_batch(endpoint, job, circuits, footprint, start_time)

        return self._serve(endpoint, job, arrival, service)

    def _deadline(self, job: CloudJob) -> float | None:
        """The retry policy's deadline for ``job`` (``None``: no deadline)."""
        seconds = self._retry_policy.deadline_seconds
        return None if seconds is None else job.submit_time + seconds

    def _backoff(self, job: CloudJob, start_time: float) -> float:
        """Count an attempt that bombed at ``start_time`` and return when the
        retry arrives, after an exponential, deterministically jittered
        backoff; a typed failure once the attempts or the deadline run out."""
        retry, counters = self._retry_policy, self.fault_counters
        counters["transient_failures"] += 1
        if job.attempts >= retry.max_attempts:
            raise self._fail(
                job,
                JobRetriesExhausted,
                f"transient failures exhausted {job.attempts} attempts",
                start_time,
                attempts=job.attempts,
            )
        backoff = retry.backoff_seconds(job.attempts, self._faults.retry_stream(job.device_name))
        counters["retries"] += 1
        if _telemetry.enabled:
            _telemetry.registry.histogram(
                "faults.backoff_seconds", bounds=(15, 30, 60, 120, 300, 600, 1200)
            ).observe(backoff)
        arrival, deadline = start_time + backoff, self._deadline(job)
        if deadline is not None and arrival > deadline:
            raise self._fail(
                job,
                JobDeadlineExceeded,
                f"{retry.deadline_seconds:.0f}s deadline exceeded during backoff",
                deadline,
            )
        return arrival

    def _complete(
        self,
        endpoint: DeviceEndpoint,
        job: CloudJob,
        start_time: float,
        elapsed: float,
        first_failure: float | None,
    ) -> CloudJob:
        """Finish an attempt that executed: draw any injected result delay,
        book the device time, enforce the per-job deadline, mark ``job`` done."""
        delay = self._faults.result_delay(job.device_name) if self._faults is not None else 0.0
        if delay > 0.0:
            self.fault_counters["result_delays"] += 1
        job.start_time = start_time
        queue_seconds = job.queue_seconds
        finish_time = start_time + elapsed + delay
        # The device freed up when the batch ended, not when the results landed.
        endpoint.free_at = start_time + elapsed
        record = endpoint.record
        record.jobs_completed += 1
        record.busy_seconds += elapsed
        record.queued_seconds += queue_seconds
        record.last_finish_time = finish_time
        deadline = self._deadline(job)
        if deadline is not None and finish_time > deadline:
            if job.parked:
                # Nobody will read this job: draw its shots now, so that
                # whatever stays parked has an owner to checkpoint it.
                self.resolve()
            raise self._fail(
                job, JobDeadlineExceeded, "deadline exceeded awaiting results "
                f"(finish {finish_time:.0f}s > {deadline:.0f}s)", deadline
            )
        job.finish_time = finish_time
        job.status = JobStatus.DONE
        if _telemetry.enabled:
            self._record_job(job, first_failure)
        return job

    def _serve(
        self,
        endpoint: DeviceEndpoint,
        job: CloudJob,
        arrival: float,
        service: Callable[[float], float],
    ) -> tuple[float, float]:
        """The clock seam: one service attempt for a job arriving at ``arrival``.

        Decides when the attempt reaches the device head, calls
        ``service(start_time)`` there, and returns ``(start_time,
        device-seconds held)``.  On the event kernel the job queues behind
        live tenant traffic and ``service`` runs inside the service-start
        event — at the start time the scheduler *decides*, after contention,
        calibration downtime and injected outages (which preempt and requeue
        it) — so noise, drift and the device RNG stream see the true
        execution time.  On the statistical clock the start is closed form:
        ``arrival`` plus one queue-wait draw from the endpoint's stream, no
        earlier than the endpoint's ``free_at``, deferred past a transient
        outage window of the plan.  Either way a device that is
        (or goes) down for good raises ``DeviceOutageError(permanent=True)``.
        """
        device = job.device_name
        if self.scheduler is not None:
            handle = self.scheduler.submit(
                device_name=device,
                arrival=arrival,
                tenant="eqc",
                num_circuits=job.num_circuits,
                service=service,
            )
            self.scheduler.run_until_complete(handle)
            if not handle.done:
                down_since = self.scheduler.queues[device].dead_since
                raise self._device_lost(job, max(arrival, down_since))
            return float(handle.start_time), handle.service_seconds

        faults = self._faults
        if faults is not None:
            outage = faults.outage_at(device, arrival)
            if outage is not None and outage.permanent:
                raise self._device_lost(job, arrival)
        start_time = max(
            arrival + endpoint.queue_model.sample_wait(arrival, endpoint.rng),
            endpoint.free_at,
        )
        if faults is not None:
            outage = faults.outage_at(device, start_time)
            if outage is not None:
                if outage.permanent:
                    raise self._device_lost(job, start_time)
                # Transient window: the job waits it out at the queue head.
                self.fault_counters["outage_deferrals"] += 1
                start_time = max(start_time, outage.end)
        return start_time, service(start_time)

    def _fail(
        self,
        job: CloudJob,
        exc_type: type[FaultError],
        error: str,
        detect_time: float,
        **context,
    ) -> FaultError:
        """Mark ``job`` failed and build the typed error for the caller to raise."""
        job.status = JobStatus.FAILED
        job.error = error
        self.fault_counters["job_failures"] += 1
        exc = exc_type(
            f"job {job.job_id} on {job.device_name!r}: {error}",
            device_name=job.device_name,
            detect_time=detect_time,
            **context,
        )
        exc.job = job
        return exc

    def _device_lost(self, job: CloudJob, detect_time: float) -> FaultError:
        """A permanent outage caught ``job``: later submits fail fast."""
        self.dead_devices.add(job.device_name)
        return self._fail(
            job, DeviceOutageError, "permanent outage", detect_time, permanent=True
        )

    def properties_view_time(self, device_name: str, now: float) -> float:
        """The calibration timestamp the provider *publishes* at ``now``.

        Normally the current time; during an injected calibration blackout
        the published properties freeze at the window start, so client-side
        ``PCorrect`` estimates go stale exactly as they would against a real
        provider whose properties endpoint lags.
        """
        if self._faults is not None:
            window = self._faults.calibration_blackout_at(device_name, now)
            if window is not None:
                self.fault_counters["calibration_blackouts"] += 1
                return min(float(now), float(window.start))
        return float(now)

    def _execute_batch(
        self,
        endpoint: DeviceEndpoint,
        job: CloudJob,
        circuits: Sequence[QuantumCircuit] | ParameterSweep,
        footprint: CircuitFootprint,
        start_time: float,
    ) -> float:
        """Start one multi-circuit job on an endpoint; returns elapsed seconds.

        The whole job is one backend batch; the backend owns the in-batch
        device clock and the physics, the provider owns queueing and
        per-batch utilization accounting.  The endpoint's backend fills the
        job's clock half here (:meth:`QPU.execute_batch`) and the job is
        parked on ``self._parked`` for :meth:`resolve`.  Both clocks reach
        the device through this one call.
        """
        elapsed = endpoint.backend.run(
            circuits,
            shots=job.shots,
            footprint=footprint,
            now=start_time,
            rng=endpoint.rng,
            park=job,
        )
        self._parked.append(job)
        return elapsed

    def _record_job(self, job: CloudJob, first_failure: float | None) -> None:
        """Telemetry for one completed job (enabled-path only)."""
        registry = _telemetry.registry
        registry.counter("qpu.jobs", device=job.device_name).inc()
        registry.counter("qpu.circuits", device=job.device_name).inc(job.num_circuits)
        registry.counter("qpu.shots", device=job.device_name).inc(
            job.shots * job.num_circuits
        )
        registry.histogram(
            "qpu.batch_size", bounds=(1, 2, 4, 8, 16, 32, 64, 128)
        ).observe(job.num_circuits)
        if self.scheduler is None:
            # The statistical clock owns its device timeline; on the event
            # kernel the service queue emits the per-job sim spans instead.
            _telemetry.tracer.add_sim_span(
                "qpu.job",
                "qpu",
                job.device_name,
                job.start_time,
                job.finish_time - job.start_time,
                args={"circuits": job.num_circuits, "shots": job.shots},
            )
        if first_failure is not None:
            mttr = job.start_time - first_failure
            registry.histogram(
                "faults.mttr_seconds",
                bounds=(30, 60, 120, 300, 600, 1800, 3600),
            ).observe(mttr)
            _telemetry.tracer.add_sim_span(
                "fault recovery",
                "faults",
                job.device_name,
                first_failure,
                mttr,
                args={"job_id": job.job_id, "attempts": job.attempts},
            )

    # ------------------------------------------------------------------
    def utilization_report(self, horizon_seconds: float | None = None) -> dict[str, dict[str, float]]:
        """Per-device utilization summary (the paper's imbalance discussion)."""
        report: dict[str, dict[str, float]] = {}
        for name, endpoint in self._endpoints.items():
            record = endpoint.record
            horizon = (
                float(horizon_seconds)
                if horizon_seconds is not None
                else max(record.last_finish_time, 1.0)
            )
            report[name] = {
                "jobs_completed": float(record.jobs_completed),
                "busy_seconds": record.busy_seconds,
                "queued_seconds": record.queued_seconds,
                "utilization": record.utilization(horizon),
            }
        return report
