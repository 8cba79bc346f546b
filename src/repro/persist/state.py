"""Bit-exact capture and restoration of a training run's live state.

A checkpoint generation is flat rows, built straight from their owners:

* the master — ``EQCMasterNode.snapshot_state``: parameters, update counts and
  version, run counters, ``PCorrect`` map, weights, orphaned tasks, fleet
  events and the task queue's position;
* the master's in-flight event heap, one row per entry (:func:`snapshot_inflight`):
  collected outcomes, jobs whose physics is still parked (stored parked,
  re-parked on restore), failures, stragglers and probes, in heap order;
* the environment (:func:`snapshot_environment`): the provider's rows (stream
  positions, ``free_at`` clocks, utilization records, job-id counter, dead
  devices, fault counters), each client's job count, the injector's stream
  positions and the breaker state with its transition log;
* the history: its epoch records are journal frames; a generation carries
  their count and digest, and ``history.json`` the head.

Ints, strings and PCG64 stream positions (:mod:`repro._streams`) are JSON;
floats are ``array('d')`` columns packed as float64 bytes, so every float
round-trips bit-exactly and a restored stream continues with the draws the
original would have made — what the resume-exactness goldens pin.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import fields
from typing import TYPE_CHECKING, Mapping, Sequence

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
    "snapshot_task",
    "restore_task",
    "snapshot_inflight",
    "restore_inflight",
    "restore_parked",
    "snapshot_record",
    "restore_record",
    "snapshot_history",
    "restore_history",
    "snapshot_environment",
    "restore_environment",
]


# ---------------------------------------------------------------------------
# tasks / in-flight heap events
# ---------------------------------------------------------------------------

def snapshot_task(task: GradientTask) -> list:
    return [task.task_id, task.parameter_index, task.data_index]


def restore_task(row: Sequence) -> GradientTask:
    return GradientTask(*row)


#: Fault classes that can be parked on the master's heap, by wire name, and
#: the constructor arguments some of them add to ``FaultError``'s.
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
_FAULT_EXTRAS = ("permanent", "attempts")


def snapshot_inflight(entry, master) -> dict:
    """One master heap event (``repro.core.master._InFlight``) as one row.

    An entry carries at most one part: the outcome of a job whose counts are
    in (collected here), a failure, or — a job or straggler whose physics is
    still parked — the dispatch it is stored as, unresolved.  Its floats are
    one column: the finish time, then the part's (an outcome's gradient,
    ``p_correct``, submit and finish times and truth; a failure's detection
    time; a parked job's ``p_correct``, submit, start and finish times and
    dispatch-time theta).
    """
    dispatched = master.parked_task(entry)
    outcome, failure, parked = entry.outcome, entry.failure, None
    floats = [entry.finish_time]
    if outcome is not None:
        floats += (outcome.gradient, outcome.p_correct, outcome.submit_time,
                   outcome.finish_time, outcome.success_probability_truth)
        outcome = [outcome.client_name, outcome.device_name, *snapshot_task(outcome.task),
                   outcome.theta_version, outcome.num_circuits]
    if failure is not None:
        floats.append(failure.detect_time)
        extra = {name: getattr(failure, name) for name in _FAULT_EXTRAS if hasattr(failure, name)}
        failure = [type(failure).__name__, str(failure), failure.device_name, extra]
    if dispatched is not None:
        job, times = dispatched.client.provider.snapshot_job(dispatched.cloud_job)
        floats += (dispatched.p_correct, *times, *dispatched.theta)
        parked = [*snapshot_task(dispatched.task), dispatched.theta_version, *job]
    return {
        "sequence": entry.sequence,
        "kind": entry.kind,
        "client": entry.client.name,
        "outcome": outcome,
        "task": None if entry.task is None else snapshot_task(entry.task),
        "failure": failure,
        "parked": parked,
        "floats": array("d", floats),
    }


def restore_parked(data: Mapping, client: EQCClientNode) -> DispatchedTask:
    """Rebuild a parked entry's circuits as its dispatch built them and re-park it."""
    parked = data["parked"]
    task, theta_version, job = restore_task(parked[:3]), parked[3], parked[4:]
    p_correct, *times = data["floats"][1:5]
    theta = tuple(data["floats"][5:])
    spec = client.objective.build_job(task, theta)
    footprint = client.representative_footprint(spec)
    cloud_job = client.provider.restore_job(job, times, spec.batch, footprint)
    return DispatchedTask(
        client, task, theta, p_correct, cloud_job.submit_time, theta_version, cloud_job
    )


def restore_inflight(
    data: Mapping, clients_by_name: Mapping[str, EQCClientNode], job_id: int = -1
):
    """``job_id``: where the master holds the entry's re-parked task, if any."""
    from ..core.master import _InFlight  # local: persist must not import core.master at module load

    finish_time, *part = data["floats"]
    outcome, failure = data["outcome"], data["failure"]
    if outcome is not None:
        client_name, device_name, *task, theta_version, num_circuits = outcome
        gradient, p_correct, submit_time, finished, truth = part
        outcome = GradientOutcome(
            client_name, device_name, restore_task(task), gradient, p_correct,
            submit_time, finished, theta_version, num_circuits, truth,
        )
    if failure is not None:
        kind, message, device_name, extra = failure
        failure = _FAULT_TYPES.get(kind, FaultError)(
            message, device_name=device_name, detect_time=part[0], **extra
        )
    return _InFlight(
        finish_time=finish_time,
        sequence=data["sequence"],
        outcome=outcome,
        client=clients_by_name[data["client"]],
        job_id=job_id,
        kind=data["kind"],
        task=None if data["task"] is None else restore_task(data["task"]),
        failure=failure,
    )


# ---------------------------------------------------------------------------
# history
# ---------------------------------------------------------------------------

def snapshot_record(record: EpochRecord) -> dict:
    """One epoch record as its journal frame (NaN ``noisy_loss`` becomes ``None``)."""
    return {
        "epoch": record.epoch,
        "sim_time_hours": record.sim_time_hours,
        "loss": record.loss,
        "parameters": list(record.parameters),
        "weights": dict(record.weights),
        "noisy_loss": None if math.isnan(record.noisy_loss) else record.noisy_loss,
    }


def restore_record(frame: Mapping) -> EpochRecord:
    noisy_loss = frame["noisy_loss"]
    return EpochRecord(
        epoch=frame["epoch"],
        sim_time_hours=frame["sim_time_hours"],
        loss=frame["loss"],
        parameters=tuple(frame["parameters"]),
        weights=dict(frame["weights"]),
        noisy_loss=float("nan") if noisy_loss is None else noisy_loss,
    )


#: A history's head: every field but its records, which are the journal's
#: epoch frames (the run store's ``history.json``).
_HEAD = tuple(field.name for field in fields(TrainingHistory) if field.name != "records")


def snapshot_history(history: TrainingHistory) -> dict:
    """A ``TrainingHistory``'s head as plain data."""
    return {name: getattr(history, name) for name in _HEAD}


def restore_history(head: Mapping, frames: Sequence[Mapping]) -> TrainingHistory:
    history = TrainingHistory(**{name: head[name] for name in _HEAD})
    history.device_names = tuple(history.device_names)
    for frame in frames:
        history.add(restore_record(frame))
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
        "provider": provider.snapshot_rows(),
        "clients": [client.jobs_completed for client in clients],
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
    provider.restore_rows(data["provider"])
    for client, jobs_completed in zip(clients, data["clients"], strict=True):
        client.jobs_completed = jobs_completed
    if injector is not None and data["injector"] is not None:
        injector.restore_streams(data["injector"])
    if health is not None and data["health"] is not None:
        health.restore_state(data["health"])
