"""The EQC client node (paper Algorithm 2).

One client node is paired with one QPU.  Its responsibilities are exactly the
paper's list: it receives the circuit template and loss definition, transpiles
the template once for its device's topology, and then, for every assigned
gradient task, it

1. builds the forward/backward (parameter-shift) job from the master's
   current parameter snapshot — the group templates plus the matrix of
   shifted parameter points; no circuit is bound anywhere on the way to the
   device,
2. computes the ``PCorrect`` estimate from the transpiled footprint and the
   device's *reported* calibration at submission time,
3. submits the job to the cloud provider and, once results return,
   processes the two probability distributions through the loss into the
   scalar gradient,
4. hands the gradient and its ``PCorrect`` back to the master.

In the discrete-event reproduction the submit-and-wait is two halves.  The
**dispatch half** (:meth:`EQCClientNode.dispatch_task`, up to the submit)
returns a :class:`DispatchedTask` stamped with the job's simulated finish
time: a job's clock is read at submit while its physics stays parked.  The
**collect half** (:meth:`DispatchedTask.collect`) reads the counts — which
resolves every job the fleet has parked by then in one stacked pass
(:meth:`repro.cloud.provider.CloudProvider.resolve`) — into the
:class:`GradientOutcome`.  The master replays the finish stamps in order and
collects each task as its event pops, which realizes the real Ray-based
system's asynchrony; ``execute_task`` is both halves back to back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

from ..backends.cache import shared_transpile_cache
from ..cloud.job import CloudJob
from ..cloud.provider import CloudProvider
from ..devices.qpu import QPU, CircuitFootprint
from ..vqa.tasks import GradientTask
from .objective import GradientJobSpec, VQAObjective
from .weighting import estimate_p_correct

__all__ = ["GradientOutcome", "DispatchedTask", "EQCClientNode"]


@dataclass(frozen=True)
class GradientOutcome:
    """What a client returns to the master for one completed task."""

    client_name: str
    device_name: str
    task: GradientTask
    gradient: float
    p_correct: float
    submit_time: float
    finish_time: float
    theta_version: int
    num_circuits: int
    success_probability_truth: float = float("nan")

    @property
    def turnaround_seconds(self) -> float:
        return max(0.0, self.finish_time - self.submit_time)


@dataclass(frozen=True)
class DispatchedTask:
    """A task whose job is submitted and timed but whose counts are unread."""

    client: "EQCClientNode"
    task: GradientTask
    #: The dispatch-time parameters (a checkpoint rebuilds a parked job's
    #: circuits from ``(task, theta)``).
    theta: tuple[float, ...]
    p_correct: float
    submit_time: float
    theta_version: int
    cloud_job: CloudJob

    def collect(self) -> GradientOutcome:
        """The collect half: counts (resolved on this read) to gradient."""
        client, job = self.client, self.cloud_job
        results = job.results
        gradient = client.objective.gradient_from_counts(
            self.task, [result.counts for result in results]
        )
        truth = results[0].metadata.get("success_probability", float("nan"))
        return GradientOutcome(
            client_name=client.name,
            device_name=client.qpu.name,
            task=self.task,
            gradient=float(gradient),
            p_correct=self.p_correct,
            submit_time=self.submit_time,
            finish_time=float(job.finish_time),
            theta_version=self.theta_version,
            num_circuits=job.num_circuits,
            success_probability_truth=float(truth),
        )


class EQCClientNode:
    """A client node managing one QPU."""

    def __init__(
        self,
        objective: VQAObjective,
        qpu: QPU,
        provider: CloudProvider,
        shots: int = 8192,
        name: str | None = None,
    ) -> None:
        self.objective = objective
        self.qpu = qpu
        self.provider = provider
        self.shots = int(shots)
        self.name = name or f"client_{qpu.name}"
        self._footprints: dict[tuple[Hashable, ...], CircuitFootprint] = {}
        #: The last ``(calibration, footprint, estimate)`` (see current_p_correct).
        self._last_p_correct: tuple = (None, None, 0.0)
        self.jobs_completed = 0

    # ------------------------------------------------------------------
    @property
    def device_name(self) -> str:
        return self.qpu.name

    def representative_footprint(self, job: GradientJobSpec) -> CircuitFootprint:
        """The footprint used for weighting and execution-noise scaling.

        The per-group footprints of one loss evaluation are averaged into a
        single representative footprint: ``PCorrect`` is computed once per
        circuit induction in the paper, and our devices scale their noise
        from the same structure.  A client's transpiled footprints never
        change, so the average is kept per template-key tuple; on a miss each
        distinct template is looked up in the process-wide transpile cache.
        """
        keys = job.template_keys
        if keys not in self._footprints:
            cache = shared_transpile_cache()
            distinct = dict(zip(keys, job.templates)).values()
            self._footprints[keys] = _average_footprints(
                [cache.get_or_transpile(t, self.qpu.topology).footprint for t in distinct]
            )
        return self._footprints[keys]

    # ------------------------------------------------------------------
    def current_p_correct(
        self,
        job: GradientJobSpec,
        now: float,
        footprint: CircuitFootprint | None = None,
    ) -> float:
        """Eq. 2 estimate from the freshest published properties at ``now``.

        ``footprint`` is the job's :meth:`representative_footprint` when the
        caller already averaged it (one averaging per job, not two).

        The estimate uses :meth:`QPU.estimated_calibration`, i.e. the device
        properties as republished every ``properties_refresh_hours`` — the
        real-time adaptivity the paper's Fig. 5 demonstrates — but never the
        device's latent (cross-talk, mid-burst) behaviour.

        The properties timestamp is routed through the provider: during an
        injected calibration blackout the published view freezes at the
        window start, so the estimate goes stale exactly as against a real
        provider whose properties endpoint lags.

        Eq. 2 is re-evaluated only when the snapshot or the footprint is not
        the last call's object: within a refresh step it returns the last
        estimate (the snapshot is still looked up on every call).
        """
        view_time = self.provider.properties_view_time(self.qpu.name, now)
        calibration = self.qpu.estimated_calibration(view_time)
        if footprint is None:
            footprint = self.representative_footprint(job)
        last = self._last_p_correct
        if last[0] is not calibration or last[1] is not footprint:
            last = (calibration, footprint, estimate_p_correct(calibration, footprint))
            self._last_p_correct = last
        return last[2]

    def dispatch_task(
        self,
        task: GradientTask,
        theta: Sequence[float],
        submit_time: float,
        theta_version: int = 0,
    ) -> DispatchedTask:
        """The dispatch half of Algorithm 2's body: build, weigh, submit."""
        job_spec = self.objective.build_job(task, theta)
        footprint = self.representative_footprint(job_spec)
        p_correct = self.current_p_correct(job_spec, submit_time, footprint)
        cloud_job = self.provider.submit(
            device_name=self.qpu.name,
            circuits=job_spec.batch,
            footprint=footprint,
            now=submit_time,
            shots=self.shots,
        )
        self.jobs_completed += 1
        return DispatchedTask(
            self,
            task,
            tuple(theta),
            float(p_correct),
            float(submit_time),
            int(theta_version),
            cloud_job,
        )

    def execute_task(
        self,
        task: GradientTask,
        theta: Sequence[float],
        submit_time: float,
        theta_version: int = 0,
    ) -> GradientOutcome:
        """Serve one task end to end: :meth:`dispatch_task`, then collect."""
        return self.dispatch_task(task, theta, submit_time, theta_version).collect()


def _average_footprints(footprints: Sequence[CircuitFootprint]) -> CircuitFootprint:
    """Element-wise average of several footprints (rounded to integers)."""
    if not footprints:
        raise ValueError("need at least one footprint")
    n = len(footprints)
    used_qubits: set[int] = set()
    used_couplings: set[tuple[int, int]] = set()
    for fp in footprints:
        used_qubits.update(fp.used_qubits)
        used_couplings.update(fp.used_couplings)
    return CircuitFootprint(
        num_single_qubit_gates=round(sum(fp.num_single_qubit_gates for fp in footprints) / n),
        num_two_qubit_gates=round(sum(fp.num_two_qubit_gates for fp in footprints) / n),
        critical_depth=round(sum(fp.critical_depth for fp in footprints) / n),
        num_measurements=round(sum(fp.num_measurements for fp in footprints) / n),
        used_qubits=tuple(sorted(used_qubits)),
        used_couplings=tuple(sorted(used_couplings)),
    )
