"""Bit-exact capture and restoration of a training run's live state.

Everything the EQC training loop needs to continue *as if uninterrupted* is
snapshotted into JSON-friendly structures and restored symmetrically:

* the master's parameter vector, per-parameter update counts and version,
  run counters, ``PCorrect`` map, weights, orphaned tasks, fleet events;
* the master's in-flight event heap — completed-but-unconsumed outcomes, jobs
  whose physics is still parked (stored parked, re-parked on restore), parked
  failures, stragglers and breaker probes, preserved in heap order;
* the history head (the epoch records themselves live in the journal);
* the cyclic task queue's issue position;
* the cloud environment: every endpoint's RNG bit-generator state, virtual
  clock (``free_at``), and utilization record, the provider's job-id counter,
  dead-device set and fault counters, and each client's job count;
* the fault machinery mid-chaos: injector stream positions and the full
  circuit-breaker state including the transition log.

Floats round-trip bit-exactly through JSON (``repr``-based serialization),
and NumPy ``Generator`` states are the bit-generator state dicts NumPy
itself exposes — a restored stream produces the same draws as the original
from the captured position onward, which is what the resume-exactness
goldens pin.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from ..core.client import DispatchedTask, EQCClientNode, GradientOutcome
from ..core.history import EpochRecord, TrainingHistory
from ..faults.errors import (
    DeviceOutageError,
    FaultError,
    JobDeadlineExceeded,
    JobRetriesExhausted,
    TransientJobFailure,
)
from ..vqa.tasks import GradientTask

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cloud.provider import CloudProvider
    from ..faults.health import DeviceHealthTracker
    from ..faults.injector import FaultInjector

__all__ = [
    "generator_state",
    "restore_generator",
    "snapshot_task",
    "restore_task",
    "snapshot_outcome",
    "restore_outcome",
    "snapshot_inflight",
    "restore_inflight",
    "restore_parked",
    "snapshot_record",
    "snapshot_history",
    "restore_history",
    "snapshot_environment",
    "restore_environment",
]


# ---------------------------------------------------------------------------
# RNG streams
# ---------------------------------------------------------------------------

def generator_state(rng: np.random.Generator) -> dict:
    """The complete bit-generator state of one NumPy ``Generator``."""
    return rng.bit_generator.state


def restore_generator(rng: np.random.Generator, state: Mapping) -> None:
    """Restore a ``Generator`` to a captured position in its stream."""
    rng.bit_generator.state = dict(state)


# ---------------------------------------------------------------------------
# tasks / outcomes / in-flight heap events
# ---------------------------------------------------------------------------

def snapshot_task(task: GradientTask) -> dict:
    return dict(vars(task))  # the dataclass fields in order (``asdict`` is 10x the cost)


def restore_task(data: Mapping) -> GradientTask:
    return GradientTask(**data)


def snapshot_outcome(outcome: GradientOutcome) -> dict:
    return {**vars(outcome), "task": snapshot_task(outcome.task)}


def restore_outcome(data: Mapping) -> GradientOutcome:
    return GradientOutcome(**{**data, "task": restore_task(data["task"])})


#: Fault classes that can be parked on the master's heap, by wire name.
_FAULT_TYPES = {
    cls.__name__: cls
    for cls in (
        FaultError,
        TransientJobFailure,
        JobRetriesExhausted,
        JobDeadlineExceeded,
        DeviceOutageError,
    )
}


def _snapshot_failure(failure: FaultError | None) -> dict | None:
    if failure is None:
        return None
    data = {
        "type": type(failure).__name__,
        "message": str(failure),
        "device_name": failure.device_name,
        "detect_time": failure.detect_time,
    }
    if isinstance(failure, DeviceOutageError):
        data["permanent"] = failure.permanent
    if isinstance(failure, JobRetriesExhausted):
        data["attempts"] = failure.attempts
    return data


def _restore_failure(data: Mapping | None) -> FaultError | None:
    if data is None:
        return None
    cls = _FAULT_TYPES.get(str(data["type"]), FaultError)
    kwargs = {
        "device_name": str(data["device_name"]),
        "detect_time": float(data["detect_time"]),
    }
    if cls is DeviceOutageError:
        kwargs["permanent"] = bool(data.get("permanent", True))
    if cls is JobRetriesExhausted:
        kwargs["attempts"] = int(data.get("attempts", 0))
    return cls(str(data["message"]), **kwargs)


def snapshot_inflight(entry, master) -> dict:
    """One master heap event (``repro.core.master._InFlight``) as plain data.

    A job (or straggler) whose physics is still parked is stored ``parked``,
    unresolved; one whose counts are in carries its collected outcome.
    """
    dispatched = master.parked_task(entry)
    return {
        "finish_time": entry.finish_time,
        "sequence": entry.sequence,
        "kind": entry.kind,
        "client": entry.client.name,
        "outcome": None if entry.outcome is None else snapshot_outcome(entry.outcome),
        "task": None if entry.task is None else snapshot_task(entry.task),
        "failure": _snapshot_failure(entry.failure),
        "parked": None if dispatched is None else {
            "task": snapshot_task(dispatched.task),
            "theta": dispatched.theta,
            "p_correct": dispatched.p_correct,
            "theta_version": dispatched.theta_version,
            "job": dispatched.client.provider.snapshot_job(dispatched.cloud_job),
        },
    }


def restore_parked(data: Mapping, client: EQCClientNode) -> DispatchedTask:
    """Rebuild a parked job's circuits as its dispatch built them and re-park it."""
    task = restore_task(data["task"])
    theta = tuple(float(v) for v in data["theta"])
    spec = client.objective.build_job(task, theta)
    footprint = client.representative_footprint(spec)
    job = client.provider.restore_job(data["job"], spec.batch, footprint)
    p_correct, version = float(data["p_correct"]), int(data["theta_version"])
    return DispatchedTask(client, task, theta, p_correct, job.submit_time, version, job)


def restore_inflight(
    data: Mapping, clients_by_name: Mapping[str, EQCClientNode], job_id: int = -1
):
    """``job_id``: where the master holds the entry's re-parked task, if any."""
    from ..core.master import _InFlight  # local: persist must not import core.master at module load

    return _InFlight(
        finish_time=float(data["finish_time"]),
        sequence=int(data["sequence"]),
        outcome=None if data["outcome"] is None else restore_outcome(data["outcome"]),
        client=clients_by_name[str(data["client"])],
        job_id=job_id,
        kind=str(data["kind"]),
        task=None if data["task"] is None else restore_task(data["task"]),
        failure=_restore_failure(data["failure"]),
    )


# ---------------------------------------------------------------------------
# history
# ---------------------------------------------------------------------------

def snapshot_record(record: EpochRecord) -> dict:
    """One epoch record as plain data (NaN ``noisy_loss`` becomes ``None``)."""
    return {
        "epoch": record.epoch,
        "sim_time_hours": record.sim_time_hours,
        "loss": record.loss,
        "parameters": list(record.parameters),
        "weights": dict(record.weights),
        "noisy_loss": None if math.isnan(record.noisy_loss) else record.noisy_loss,
    }


def snapshot_history(history: TrainingHistory) -> dict:
    """A ``TrainingHistory`` as plain data (shared with the run store)."""
    return {
        "label": history.label,
        "device_names": list(history.device_names),
        "total_updates": history.total_updates,
        "total_jobs": history.total_jobs,
        "terminated_early": history.terminated_early,
        "termination_reason": history.termination_reason,
        "final_epoch_fraction": history.final_epoch_fraction,
        "metadata": history.metadata,
        "records": [snapshot_record(r) for r in history.records],
    }


def restore_history(data: Mapping) -> TrainingHistory:
    history = TrainingHistory(
        label=str(data["label"]),
        device_names=tuple(data["device_names"]),
        total_updates=int(data["total_updates"]),
        total_jobs=int(data["total_jobs"]),
        terminated_early=bool(data["terminated_early"]),
        termination_reason=str(data["termination_reason"]),
        final_epoch_fraction=float(data["final_epoch_fraction"]),
        metadata=dict(data["metadata"]),
    )
    for r in data["records"]:
        history.add(
            EpochRecord(
                epoch=int(r["epoch"]),
                sim_time_hours=float(r["sim_time_hours"]),
                loss=float(r["loss"]),
                parameters=tuple(float(v) for v in r["parameters"]),
                weights={k: float(v) for k, v in r["weights"].items()},
                noisy_loss=float("nan") if r["noisy_loss"] is None else float(r["noisy_loss"]),
            )
        )
    return history


# ---------------------------------------------------------------------------
# environment (provider + clients + fault machinery)
# ---------------------------------------------------------------------------

def snapshot_environment(
    provider: "CloudProvider",
    clients: Sequence[EQCClientNode],
    injector: "FaultInjector | None" = None,
    health: "DeviceHealthTracker | None" = None,
) -> dict:
    """Capture everything outside the master that evolves during training."""
    return {
        "provider": provider.snapshot_state(),
        "clients": {client.name: client.jobs_completed for client in clients},
        "injector": None if injector is None else injector.snapshot_streams(),
        "health": None if health is None else health.snapshot_state(),
    }


def restore_environment(
    data: Mapping,
    provider: "CloudProvider",
    clients: Sequence[EQCClientNode],
    injector: "FaultInjector | None" = None,
    health: "DeviceHealthTracker | None" = None,
) -> None:
    """Restore a captured environment into freshly constructed objects."""
    provider.restore_state(data["provider"])
    counts = data["clients"]
    for client in clients:
        client.jobs_completed = int(counts[client.name])
    if injector is not None and data["injector"] is not None:
        injector.restore_streams(data["injector"])
    if health is not None and data["health"] is not None:
        health.restore_state(data["health"])
