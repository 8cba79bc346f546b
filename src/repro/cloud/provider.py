"""The simulated cloud provider: job submission, queues, utilization.

The :class:`CloudProvider` is the piece of the substrate that stands in for
the IBMQ service.  Each backend device keeps a serial work queue, and the
provider supports two queueing regimes:

* **statistical** (default) — a job submitted at time *t* waits for
  (a) whatever the device is still executing and (b) a stochastic congestion
  delay from the device's :class:`~repro.cloud.queueing.QueueModel`
  (the :class:`~repro.cloud.queueing.StatisticalQueuePolicy` fallback; other
  users are a distribution, and seeded histories are bit-exact with the
  pre-scheduler code);
* **scheduled** — when constructed with a
  :class:`~repro.sched.scheduler.CloudScheduler`, jobs are submitted into
  the shared discrete-event kernel where they compete with background tenant
  traffic for capacity-1 devices under a pluggable scheduling policy, and
  queue delays *emerge* from contention and calibration downtime.

Either way the provider records per-device busy time so the utilization
imbalance the paper motivates EQC with can be quantified (see
:meth:`CloudProvider.utilization_report`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

import numpy as np

from ..backends.base import ExecutionBackend
from ..backends.noisy import NoisyBackend
from ..circuit.circuit import QuantumCircuit
from ..circuit.sweep import ParameterSweep
from ..devices.qpu import QPU, CircuitFootprint, job_slot_circuit_seconds
from ..faults.errors import (
    DeviceOutageError,
    JobDeadlineExceeded,
    JobRetriesExhausted,
)
from ..faults.retry import DEFAULT_RETRY_POLICY, RetryPolicy
from ..simulator.result import ExecutionResult
from ..telemetry import TELEMETRY as _telemetry
from .job import CloudJob, JobStatus
from .queueing import QueueModel, StatisticalQueuePolicy, queue_model_for

if TYPE_CHECKING:  # pragma: no cover - cloud never imports sched at runtime
    from ..faults.injector import FaultInjector
    from ..sched.scheduler import CloudScheduler

__all__ = ["DeviceEndpoint", "CloudProvider", "UtilizationRecord"]

#: Builds the execution backend serving one device endpoint.
BackendFactory = Callable[[QPU], ExecutionBackend]


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
    :class:`ExecutionBackend` that actually runs batches on the device —
    swapping the backend swaps the physics without touching the scheduling.
    """

    def __init__(
        self,
        qpu: QPU,
        queue_model: QueueModel,
        seed: int,
        backend: ExecutionBackend | None = None,
    ) -> None:
        self.qpu = qpu
        self.queue_model = queue_model
        self.backend: ExecutionBackend = backend if backend is not None else NoisyBackend(qpu)
        self.rng = np.random.default_rng((seed, qpu.spec.seed, 0xB0B))
        #: Simulation time at which the device becomes free.
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
        backend_factory: BackendFactory | None = None,
        scheduler: "CloudScheduler | None" = None,
        queue_policy: StatisticalQueuePolicy | None = None,
        fault_injector: "FaultInjector | None" = None,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        qpus = list(qpus)
        if not qpus:
            raise ValueError("the provider needs at least one device")
        names = [q.name for q in qpus]
        if len(set(names)) != len(names):
            raise ValueError("duplicate device names in the fleet")
        self._endpoints: dict[str, DeviceEndpoint] = {}
        for qpu in qpus:
            model = (
                queue_models[qpu.name]
                if queue_models is not None and qpu.name in queue_models
                else queue_model_for(qpu.name)
            )
            backend = backend_factory(qpu) if backend_factory is not None else None
            self._endpoints[qpu.name] = DeviceEndpoint(qpu, model, seed, backend=backend)
        self.default_shots = int(shots)
        #: Next job id (a plain int rather than itertools.count so checkpoint
        #: snapshots can capture and restore the counter).
        self._next_job_id = 0
        self.scheduler = scheduler
        self._queue_policy = (
            queue_policy if queue_policy is not None else StatisticalQueuePolicy()
        )
        #: Fault injection: None (the default) keeps the fault-free hot path
        #: untouched beyond one predicated branch per submit.
        self._faults = (
            fault_injector
            if fault_injector is not None and fault_injector.enabled
            else None
        )
        self._retry_policy = (
            retry_policy if retry_policy is not None else DEFAULT_RETRY_POLICY
        )
        if self._faults is not None and scheduler is not None:
            raise ValueError(
                "fault injection is not supported on the scheduler path: "
                "inject outages through CloudScheduler.inject_outage instead"
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

    def backend(self, device_name: str) -> ExecutionBackend:
        """The execution backend serving one endpoint."""
        return self._endpoint(device_name).backend

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
        """Everything that evolves during training, as JSON-able data.

        Per endpoint: the RNG bit-generator state (queue waits + measurement
        shots draw from it), the device's own fallback stream, the virtual
        clock, and the utilization record; provider-wide: the job-id
        counter, dead devices, and fault counters.  The scheduler path keeps
        its state inside the event kernel and is not checkpointable (config
        validation rejects it before a snapshot is ever taken).
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

    def restore_state(self, data: Mapping) -> None:
        """Restore a captured provider state into this (fresh) provider."""
        self._next_job_id = int(data["next_job_id"])
        self.dead_devices = set(data["dead_devices"])
        self.fault_counters = {k: int(v) for k, v in data["fault_counters"].items()}
        for name, captured in data["endpoints"].items():
            endpoint = self._endpoint(name)
            endpoint.rng.bit_generator.state = dict(captured["rng"])
            endpoint.qpu._rng.bit_generator.state = dict(captured["qpu_rng"])
            endpoint.free_at = float(captured["free_at"])
            record = captured["record"]
            endpoint.record.jobs_completed = int(record["jobs_completed"])
            endpoint.record.busy_seconds = float(record["busy_seconds"])
            endpoint.record.queued_seconds = float(record["queued_seconds"])
            endpoint.record.last_finish_time = float(record["last_finish_time"])

    # ------------------------------------------------------------------
    def submit(
        self,
        device_name: str,
        circuits: Sequence[QuantumCircuit] | ParameterSweep,
        footprint: CircuitFootprint,
        now: float,
        shots: int | None = None,
        priority: int = 0,
    ) -> CloudJob:
        """Submit a batch of circuits and simulate it to completion.

        The batch is either bound circuits (the baselines) or an unbound
        :class:`~repro.circuit.sweep.ParameterSweep` (an EQC gradient job:
        templates plus the parameter-point matrix).  All three submit paths
        hand it to the endpoint's backend untouched, so a sweep is lowered
        at the device without a single circuit being bound, and either form
        of the same job yields identical results, timing and RNG state.

        The returned job is already in the ``DONE`` state with its results
        and timing populated; callers (EQC client nodes, baselines) treat
        ``job.finish_time`` as the moment the results become visible, which is
        how asynchrony is realized on the virtual clock.

        With a scheduler attached the job is routed through the shared event
        kernel (where it competes with tenant traffic and ``priority`` can
        matter to the policy); otherwise the statistical fallback prices the
        queue wait in closed form.
        """
        if not len(circuits):
            raise ValueError("a job needs at least one circuit")
        endpoint = self._endpoint(device_name)
        shots = int(shots) if shots is not None else self.default_shots

        job = CloudJob(
            job_id=self._new_job_id(),
            device_name=device_name,
            num_circuits=len(circuits),
            shots=shots,
            submit_time=float(now),
        )

        if self.scheduler is not None:
            return self._submit_scheduled(
                endpoint, job, circuits, footprint, now, shots, priority
            )

        if self._faults is not None:
            return self._submit_with_faults(
                endpoint, job, circuits, footprint, now, shots
            )

        start_time = self._queue_policy.start_time(endpoint, now)
        job.start_time = start_time
        job.status = JobStatus.RUNNING

        elapsed = self._execute_batch(endpoint, job, circuits, footprint, start_time, shots)
        for result in job.results:
            result.queue_seconds = job.queue_seconds

        job.finish_time = start_time + elapsed
        job.status = JobStatus.DONE

        endpoint.free_at = job.finish_time
        endpoint.record.jobs_completed += 1
        endpoint.record.busy_seconds += elapsed
        endpoint.record.queued_seconds += job.queue_seconds
        endpoint.record.last_finish_time = job.finish_time
        if _telemetry.enabled:
            # The statistical path owns its device timeline; on the scheduler
            # path the service queue emits the per-job sim spans instead.
            self._record_job(job, sim_span=True)
        return job

    def _submit_with_faults(
        self,
        endpoint: DeviceEndpoint,
        job: CloudJob,
        circuits: Sequence[QuantumCircuit] | ParameterSweep,
        footprint: CircuitFootprint,
        now: float,
        shots: int,
    ) -> CloudJob:
        """Fault-injected statistical path: retries, outages, deadlines.

        The job loops through up to ``retry_policy.max_attempts`` service
        attempts.  Each attempt pays the normal stochastic queue wait, may be
        deferred past a transient outage window, and may bomb with the plan's
        transient-failure probability — in which case the provider backs off
        (exponential, deterministically jittered) and tries again.  Failures
        cost *virtual* time: every exception raised here carries the
        simulation time at which the caller learns about it.

        The endpoint's physics RNG is only touched by the attempt that
        actually executes, so a chaos run's successful measurements come from
        the same stream positions as a fault-free run with the same seed
        (fault decisions draw from injector streams exclusively).
        """
        faults = self._faults
        retry = self._retry_policy
        device = job.device_name
        counters = self.fault_counters

        if device in self.dead_devices:
            job.status = JobStatus.FAILED
            job.error = "device permanently down"
            counters["job_failures"] += 1
            raise DeviceOutageError(
                f"device {device!r} is permanently down",
                device_name=device,
                detect_time=float(now),
                permanent=True,
            )

        deadline = (
            job.submit_time + retry.deadline_seconds
            if retry.deadline_seconds is not None
            else None
        )
        attempt_now = float(now)
        first_failure: float | None = None
        for attempt in range(1, retry.max_attempts + 1):
            job.attempts = attempt

            outage = faults.outage_at(device, attempt_now)
            if outage is not None and outage.permanent:
                self.dead_devices.add(device)
                job.status = JobStatus.FAILED
                job.error = "permanent outage"
                counters["job_failures"] += 1
                raise DeviceOutageError(
                    f"device {device!r} suffered a permanent outage",
                    device_name=device,
                    detect_time=attempt_now,
                    permanent=True,
                )

            start_time = self._queue_policy.start_time(endpoint, attempt_now)
            outage = faults.outage_at(device, start_time)
            if outage is not None:
                if outage.permanent:
                    self.dead_devices.add(device)
                    job.status = JobStatus.FAILED
                    job.error = "permanent outage"
                    counters["job_failures"] += 1
                    raise DeviceOutageError(
                        f"device {device!r} suffered a permanent outage",
                        device_name=device,
                        detect_time=start_time,
                        permanent=True,
                    )
                # Transient window: the job simply waits it out at the head
                # of the queue.
                counters["outage_deferrals"] += 1
                start_time = max(start_time, outage.end)

            if faults.transient_failure(device):
                if first_failure is None:
                    first_failure = start_time
                counters["transient_failures"] += 1
                if attempt >= retry.max_attempts:
                    job.status = JobStatus.FAILED
                    job.error = f"transient failures exhausted {attempt} attempts"
                    counters["job_failures"] += 1
                    raise JobRetriesExhausted(
                        f"job {job.job_id} on {device!r} failed "
                        f"{attempt} attempts",
                        device_name=device,
                        detect_time=start_time,
                        attempts=attempt,
                    )
                backoff = retry.backoff_seconds(attempt, faults.retry_stream(device))
                counters["retries"] += 1
                if _telemetry.enabled:
                    _telemetry.registry.histogram(
                        "faults.backoff_seconds",
                        bounds=(15, 30, 60, 120, 300, 600, 1200),
                    ).observe(backoff)
                attempt_now = start_time + backoff
                if deadline is not None and attempt_now > deadline:
                    job.status = JobStatus.FAILED
                    job.error = "deadline exceeded during backoff"
                    counters["job_failures"] += 1
                    raise JobDeadlineExceeded(
                        f"job {job.job_id} on {device!r} blew its "
                        f"{retry.deadline_seconds:.0f}s deadline while backing off",
                        device_name=device,
                        detect_time=deadline,
                    )
                continue

            # Successful attempt: run the physics.
            job.start_time = start_time
            job.status = JobStatus.RUNNING
            elapsed = self._execute_batch(
                endpoint, job, circuits, footprint, start_time, shots
            )
            delay = faults.result_delay(device)
            if delay > 0.0:
                counters["result_delays"] += 1
            finish_time = start_time + elapsed + delay

            # Device bookkeeping is real regardless of result visibility:
            # the hardware executed the batch.
            endpoint.free_at = start_time + elapsed
            endpoint.record.jobs_completed += 1
            endpoint.record.busy_seconds += elapsed
            endpoint.record.queued_seconds += job.queue_seconds
            endpoint.record.last_finish_time = finish_time

            if deadline is not None and finish_time > deadline:
                job.status = JobStatus.FAILED
                job.error = "deadline exceeded awaiting results"
                counters["job_failures"] += 1
                raise JobDeadlineExceeded(
                    f"job {job.job_id} on {device!r} missed its results "
                    f"deadline (finish {finish_time:.0f}s > {deadline:.0f}s)",
                    device_name=device,
                    detect_time=deadline,
                )

            for result in job.results:
                result.queue_seconds = job.queue_seconds
            job.finish_time = finish_time
            job.status = JobStatus.DONE
            if _telemetry.enabled:
                self._record_job(job, sim_span=True)
                if first_failure is not None:
                    mttr = start_time - first_failure
                    _telemetry.registry.histogram(
                        "faults.mttr_seconds",
                        bounds=(30, 60, 120, 300, 600, 1800, 3600),
                    ).observe(mttr)
                    _telemetry.tracer.add_sim_span(
                        "fault recovery",
                        "faults",
                        device,
                        first_failure,
                        mttr,
                        args={"job_id": job.job_id, "attempts": attempt},
                    )
            return job

        raise AssertionError("unreachable: retry loop exits via return/raise")

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
        shots: int,
    ) -> float:
        """Run one multi-circuit job on an endpoint; returns elapsed seconds.

        The whole job is one backend batch; the backend owns the in-batch
        device clock and the physics, the provider owns queueing and
        per-batch utilization accounting.  On a noisy endpoint the batch
        flows through :meth:`QPU.execute_batch` — the vectorized mixing
        pipeline: per-circuit clock offsets and noise specs are computed up
        front, the whole job simulates as one ``(batch, 2**n)`` matrix, and
        shots are drawn from the endpoint's RNG stream in batch order, so
        seeded histories are bit-exact with sequential execution.  Both
        queueing regimes (the statistical fallback and the scheduler's
        service-start event) share this path, so the physics can never
        diverge between them.
        """
        results = endpoint.backend.run(
            circuits,
            shots=shots,
            footprint=footprint,
            now=start_time,
            rng=endpoint.rng,
        )
        elapsed = 0.0
        for result in results:
            if result.duration_seconds == 0.0:
                # Ideal backends carry no device clock; charge the device's
                # own job timing so swapping the physics never collapses the
                # schedule (busy time, free_at, epochs/hour stay meaningful).
                result.duration_seconds = endpoint.qpu.job_duration_seconds(
                    start_time + elapsed
                )
            job.results.append(result)
            elapsed += job_slot_circuit_seconds(result.duration_seconds)
        return elapsed

    def _submit_scheduled(
        self,
        endpoint: DeviceEndpoint,
        job: CloudJob,
        circuits: Sequence[QuantumCircuit] | ParameterSweep,
        footprint: CircuitFootprint,
        now: float,
        shots: int,
        priority: int,
    ) -> CloudJob:
        """Kernel path: the job queues behind live tenant traffic.

        The backend's physics run inside the service-start event — at the
        start time the scheduler *decides*, after contention and calibration
        downtime — so noise, drift and the device RNG stream see the true
        execution time, exactly as on the statistical path.
        """

        def service(start_time: float) -> float:
            # A preempted service (outage mid-run) re-enters here with a
            # fresh start time; drop any partial results from the cut run.
            job.results.clear()
            return self._execute_batch(
                endpoint, job, circuits, footprint, start_time, shots
            )

        job.status = JobStatus.RUNNING
        handle = self.scheduler.submit(
            device_name=endpoint.qpu.name,
            arrival=float(now),
            tenant="eqc",
            num_circuits=len(circuits),
            priority=priority,
            service=service,
        )
        self.scheduler.run_until_complete(handle)

        job.start_time = float(handle.start_time)
        job.finish_time = float(handle.finish_time)
        job.status = JobStatus.DONE
        for result in job.results:
            result.queue_seconds = job.queue_seconds

        queue = self.scheduler.queues[endpoint.qpu.name]
        endpoint.free_at = max(endpoint.free_at, queue.free_at)
        endpoint.record.jobs_completed += 1
        endpoint.record.busy_seconds += handle.service_seconds
        endpoint.record.queued_seconds += job.queue_seconds
        endpoint.record.last_finish_time = max(
            endpoint.record.last_finish_time, job.finish_time
        )
        if _telemetry.enabled:
            self._record_job(job, sim_span=False)
        return job

    def _record_job(self, job: CloudJob, sim_span: bool) -> None:
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
        if sim_span and job.start_time is not None and job.finish_time is not None:
            _telemetry.tracer.add_sim_span(
                "qpu.job",
                "qpu",
                job.device_name,
                job.start_time,
                job.finish_time - job.start_time,
                args={"circuits": job.num_circuits, "shots": job.shots},
            )

    # ------------------------------------------------------------------
    def device_free_at(self, device_name: str) -> float:
        """Simulation time at which the device's queue drains."""
        return self._endpoint(device_name).free_at

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
