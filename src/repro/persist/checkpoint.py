"""Resume-exact training checkpoints over the run store.

The :class:`TrainingCheckpointer` is the hook object the master's training
loop drives.  It owns the run's write-ahead journal and its checkpoint
generations, and implements the recovery contract:

* **record** — every committed weight update appends one journal record
  (task, client, gradient, new value, weight, version), so the run's
  committed progress survives a process kill between checkpoints;
* **checkpoint** — at every ``checkpoint_every``-th epoch boundary the
  complete training state (master loop, event heap, history, environment)
  is written as one atomic checkpoint generation, with the journal fsynced
  first so no checkpoint ever points past its own journal;
* **restore** — recovery loads the newest checkpoint that passes
  verification (a corrupted generation falls back to the previous one,
  counted in :attr:`fallbacks`), restores every captured state surface, and
  re-executes the deterministic loop from there.  Each replayed update is
  compared bit-for-bit against its journal record — the journal *is* the
  committed-progress ledger, and a wrong seed, drifted config, or changed
  physics surfaces as :class:`JournalDivergenceError` on the first replayed
  update instead of silently diverging.

Because the whole simulation is deterministic given the captured state
(every random draw comes from a restored RNG stream), re-execution after
restore is bit-exact with the uninterrupted run — the property the
resume-exactness goldens pin.

**Cost model.**  A generation is O(state + history) *bytes* (a whole
container, never a delta), but the history, its largest section, costs
O(new records) *encoding*: an epoch record is immutable once appended, so its
JSON text is encoded once and held by position, and the section is the head
encoded afresh around those texts — byte for byte ``json.dumps`` of
``snapshot_history``, the oracle the tests keep.  Everything else (``meta``,
``master``, ``pending``, ``environment``) moves between checkpoints and is
small at the fleet sizes trained here, so it is encoded whole every time.  A
resumed checkpointer holds no texts and pays one full encode.
"""

from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import replace
from operator import is_
from pathlib import Path
from typing import TYPE_CHECKING

from ..telemetry import TELEMETRY as _telemetry
from .format import (
    CheckpointCorruptError,
    atomic_write_json,
    encode_json,
    read_checkpoint_file,
    write_checkpoint_file,
)
from .journal import JournalWriter, read_journal
from .state import (
    restore_environment,
    restore_history,
    restore_inflight,
    restore_task,
    snapshot_environment,
    snapshot_history,
    snapshot_inflight,
    snapshot_record,
    snapshot_task,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cloud.provider import CloudProvider
    from ..core.history import TrainingHistory
    from ..core.master import EQCMasterNode
    from ..faults.injector import FaultInjector
    from .store import RunDirectory

__all__ = ["JournalDivergenceError", "TrainingCheckpointer"]


class JournalDivergenceError(RuntimeError):
    """A replayed update does not match its journal record bit-for-bit, or
    the verified journal ends short of the checkpoint being restored."""


def _checkpoint_name(epoch: int) -> str:
    return f"ckpt-{epoch:06d}.eqc"


#: What a generation holds; restore refuses one that lacks any of them.
_SECTIONS = frozenset({"meta", "master", "pending", "history", "environment"})


class TrainingCheckpointer:
    """Drives journaling, checkpointing, and restore for one training run."""

    def __init__(
        self,
        run: "RunDirectory",
        checkpoint_every: int,
        retention: int = 3,
        *,
        provider: "CloudProvider",
        injector: "FaultInjector | None" = None,
        resume: bool = False,
    ) -> None:
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if retention < 1:
            raise ValueError("retention must be >= 1")
        self.run = run
        self.checkpoint_every = int(checkpoint_every)
        self.retention = int(retention)
        self._provider = provider
        self._injector = injector
        self.run.checkpoints_dir.mkdir(parents=True, exist_ok=True)
        #: Checkpoint generations skipped as corrupt during restore (paths).
        self.fallbacks: list[str] = []
        self.checkpoints_written = 0
        for stale in self.run.checkpoints_dir.glob(".ckpt-*.tmp"):
            stale.unlink(missing_ok=True)  # a killed writer's temp sibling
        #: Generations on disk, oldest first (seeded from the directory so a
        #: resumed checkpointer keeps applying retention to pre-crash files;
        #: maintained in memory afterwards — retention must not pay a
        #: directory scan on every checkpoint).
        self._generations: list[Path] = [
            Path(p) for p in self.run.checkpoint_paths()
        ]
        self._last_checkpoint_epoch = 0
        self._restore_sections: dict | None = None
        self._verify: deque[dict] = deque()
        #: The epoch records encoded so far and their texts, by position.
        self._records, self._record_texts = [], []
        if resume:
            self._prepare_restore()
        self.journal = JournalWriter(self.run.journal_path)

    # ------------------------------------------------------------------
    # restore
    # ------------------------------------------------------------------
    def _prepare_restore(self) -> None:
        """Pick the newest verifiable checkpoint and the journal suffix.

        Generations are tried newest-first; a generation that fails any
        integrity check (truncation, bit flip, bad schema, missing file) is
        recorded in :attr:`fallbacks` and the previous one is tried — the
        retention policy guarantees older generations exist.  With no valid
        checkpoint at all (e.g. the process died before the first epoch) the
        run restarts from scratch, with the *entire* journal as the replay
        verification suffix.
        """
        for path in sorted(self.run.checkpoint_paths(), reverse=True):
            try:
                sections = read_checkpoint_file(path)
                if not _SECTIONS <= sections.keys():  # a damaged name in the header
                    raise CheckpointCorruptError(f"{path}: a section is missing")
                self._restore_sections = sections
                break
            except CheckpointCorruptError:
                self.fallbacks.append(str(path))
                if _telemetry.enabled:
                    _telemetry.registry.counter("persist.checkpoint_fallbacks").inc()
        restored_updates = 0
        if self._restore_sections is not None:
            restored_updates = int(self._restore_sections["meta"]["updates_applied"])
            self._last_checkpoint_epoch = int(
                self._restore_sections["meta"]["epoch_completed"]
            )
        journal = read_journal(self.run.journal_path)
        if journal.committed_updates < restored_updates:
            # Synced before every commit, the journal can only end short of a
            # checkpoint if a frame inside it is damaged; appending there
            # would leave a silent gap in the ledger.
            raise JournalDivergenceError(
                f"{journal.path}: verified up to update {journal.committed_updates}, "
                f"but the restored checkpoint holds {restored_updates}"
            )
        if journal.torn_tail_bytes:  # or the writer would append behind the tear
            os.truncate(self.run.journal_path, journal.valid_bytes)
        self._verify = deque(
            record
            for record in journal.records
            if int(record["update"]) > restored_updates
        )

    @property
    def has_restore(self) -> bool:
        return self._restore_sections is not None

    def restore_into(self, master: "EQCMasterNode", history: "TrainingHistory"):
        """Restore the captured run into a freshly built master + history.

        Returns the loop state tuple ``(pending, sequence, now,
        epoch_completed, epoch_sim_start)`` for the training loop to resume
        from, or ``None`` when there is nothing to restore (fresh run, or a
        resume that died before its first checkpoint).
        """
        if self._restore_sections is None:
            return None
        start_ns = time.time_ns() if _telemetry.enabled else 0
        sections = self._restore_sections
        meta = sections["meta"]
        ms = sections["master"]

        state = master.state
        if len(ms["values"]) != state.num_parameters:
            raise CheckpointCorruptError(
                f"checkpoint carries {len(ms['values'])} parameters, "
                f"the objective has {state.num_parameters}"
            )
        state.values[:] = [float(v) for v in ms["values"]]
        state.update_counts[:] = [int(c) for c in ms["update_counts"]]
        state.version = int(ms["version"])

        counters = ms["telemetry"]
        master.telemetry.updates_applied = int(counters["updates_applied"])
        master.telemetry.jobs_dispatched = int(counters["jobs_dispatched"])
        master.telemetry.circuits_executed = int(counters["circuits_executed"])
        master.telemetry.total_staleness = int(counters["total_staleness"])
        master.telemetry.max_staleness = int(counters["max_staleness"])

        master._p_correct = {k: float(v) for k, v in ms["p_correct"].items()}
        master._weights = {k: float(v) for k, v in ms["weights"].items()}
        master._orphans = deque(restore_task(t) for t in ms["orphans"])
        master._fleet_events = [dict(e) for e in ms["fleet_events"]]
        master._fault_stats = {k: int(v) for k, v in ms["fault_stats"].items()}
        clients_by_name = {client.name: client for client in master.clients}
        master._live = [clients_by_name[name] for name in ms["live"]]
        master.task_queue._issued = int(ms["tasks_issued"])
        master._start_time = float(meta["start_time"])

        restored = restore_history(sections["history"])
        history.records[:] = restored.records
        history.device_names = restored.device_names
        history.total_updates = restored.total_updates
        history.total_jobs = restored.total_jobs
        history.terminated_early = restored.terminated_early
        history.termination_reason = restored.termination_reason
        history.final_epoch_fraction = restored.final_epoch_fraction
        history.metadata.clear()
        history.metadata.update(restored.metadata)

        restore_environment(
            sections["environment"],
            self._provider,
            master.clients,
            injector=self._injector,
            health=master.health,
        )
        pending = [
            restore_inflight(entry, clients_by_name) for entry in sections["pending"]
        ]
        if _telemetry.enabled:
            _telemetry.tracer.add_span(
                "checkpoint restore",
                "persist",
                start_ns,
                time.time_ns(),
                args={
                    "epoch": int(meta["epoch_completed"]),
                    "journal_suffix": len(self._verify),
                    "fallbacks": len(self.fallbacks),
                },
            )
        return (
            pending,
            int(meta["sequence"]),
            float(meta["now"]),
            int(meta["epoch_completed"]),
            float(meta["epoch_sim_start"]),
        )

    # ------------------------------------------------------------------
    # record / checkpoint
    # ------------------------------------------------------------------
    def record_update(self, master: "EQCMasterNode", outcome, weight, new_value) -> None:
        """Journal one committed weight update (or verify it on replay)."""
        record = {
            "update": master.telemetry.updates_applied,
            "task_id": outcome.task.task_id,
            "parameter_index": outcome.task.parameter_index,
            "client": outcome.client_name,
            "gradient": outcome.gradient,
            "weight": float(weight),
            "new_value": float(new_value),
            "version": master.state.version,
        }
        if self._verify:
            expected = self._verify.popleft()
            if expected != record:
                mismatched = sorted(
                    key
                    for key in set(expected) | set(record)
                    if expected.get(key) != record.get(key)
                )
                raise JournalDivergenceError(
                    f"replayed update {record['update']} diverges from the "
                    f"journal in {mismatched}: journal={expected!r}, "
                    f"replayed={record!r} — the resumed environment does not "
                    f"match the one that wrote this run"
                )
            return  # already journaled before the crash
        self.journal.append(record)

    def after_iteration(
        self,
        master: "EQCMasterNode",
        history: "TrainingHistory",
        pending: list,
        sequence: int,
        now: float,
        epoch_completed: int,
        epoch_sim_start: float,
    ) -> None:
        """Checkpoint at configured epoch boundaries (end-of-iteration hook).

        The hook fires at the end of every job iteration; a checkpoint is
        written only in the iteration whose update completed a
        ``checkpoint_every``-multiple epoch — the loop state is then exactly
        "about to pop the next event", which is where restore re-enters.
        """
        if epoch_completed <= self._last_checkpoint_epoch:
            return
        if epoch_completed % self.checkpoint_every != 0:
            return
        self._write_checkpoint(
            master, history, pending, sequence, now, epoch_completed, epoch_sim_start
        )

    def _write_checkpoint(
        self,
        master: "EQCMasterNode",
        history: "TrainingHistory",
        pending: list,
        sequence: int,
        now: float,
        epoch_completed: int,
        epoch_sim_start: float,
    ) -> None:
        telemetry_on = _telemetry.enabled
        start = time.perf_counter() if telemetry_on else 0.0
        state = master.state
        for entry in pending:
            if entry.kind == "job":
                master.gather(entry)  # the container stores finished outcomes
        sections = {
            "meta": {
                "updates_applied": master.telemetry.updates_applied,
                "epoch_completed": int(epoch_completed),
                "now": float(now),
                "sequence": int(sequence),
                "epoch_sim_start": float(epoch_sim_start),
                "start_time": master._start_time,
                "label": master.label,
            },
            "master": {
                "values": [float(v) for v in state.values],
                "update_counts": [int(c) for c in state.update_counts],
                "version": state.version,
                "telemetry": {
                    "updates_applied": master.telemetry.updates_applied,
                    "jobs_dispatched": master.telemetry.jobs_dispatched,
                    "circuits_executed": master.telemetry.circuits_executed,
                    "total_staleness": master.telemetry.total_staleness,
                    "max_staleness": master.telemetry.max_staleness,
                },
                "p_correct": dict(master._p_correct),
                "weights": dict(master._weights),
                "orphans": [snapshot_task(t) for t in master._orphans],
                "fleet_events": list(master._fleet_events),
                "fault_stats": dict(master._fault_stats),
                "live": [client.name for client in master._live],
                "tasks_issued": master.task_queue.tasks_issued,
            },
            "pending": [snapshot_inflight(entry) for entry in pending],
            "history": self._history_payload(history),
            "environment": snapshot_environment(
                self._provider,
                master.clients,
                injector=self._injector,
                health=master.health,
            ),
        }
        # The journal must be durable before the checkpoint that supersedes
        # its prefix commits — a checkpoint may never point past its journal.
        self.journal.sync()
        path = self.run.checkpoints_dir / _checkpoint_name(epoch_completed)
        size = write_checkpoint_file(path, sections)
        self._generations.append(path)
        self._last_checkpoint_epoch = int(epoch_completed)
        self.checkpoints_written += 1
        if telemetry_on:
            registry = _telemetry.registry
            registry.counter("persist.checkpoints").inc()
            registry.gauge("persist.checkpoint_bytes").set(size)
            registry.histogram("persist.checkpoint_seconds").observe(
                time.perf_counter() - start
            )
        self._apply_retention()

    def _history_payload(self, history: "TrainingHistory") -> bytes:
        """The history head encoded afresh around the held record texts."""
        records, held, texts = history.records, self._records, self._record_texts
        if len(held) > len(records) or not all(map(is_, held, records)):
            del held[:], texts[:]  # not the list these were encoded from, grown
        for record in records[len(held):]:
            held.append(record)
            texts.append(encode_json(snapshot_record(record)))
        head = encode_json(snapshot_history(replace(history, records=[])))
        # ``records`` is the last member: ``..."records":[]}`` opens up at -2.
        return (head[:-2] + ",".join(texts) + "]}").encode()

    def _apply_retention(self) -> None:
        """Keep the newest ``retention`` generations, delete the rest."""
        while len(self._generations) > self.retention:
            path = self._generations.pop(0)
            try:
                path.unlink()
            except OSError:
                pass  # a missing generation is already what retention wants

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------
    def finalize(self, history: "TrainingHistory") -> None:
        """Persist the finished run: final history, telemetry, manifest."""
        self.close()
        history.metadata["persist"] = {
            "journal_records": self.journal.records_written,
            "journal_fsyncs": self.journal.fsyncs,
            "checkpoints_written": self.checkpoints_written,
            "fallbacks": len(self.fallbacks),
        }
        atomic_write_json(self.run.history_path, snapshot_history(history))
        if _telemetry.enabled:
            atomic_write_json(
                self.run.telemetry_path, _telemetry.registry.snapshot()
            )
        self.run.mark_complete(
            {
                "epochs": len(history.records),
                "total_updates": history.total_updates,
                "total_jobs": history.total_jobs,
                "final_loss": history.records[-1].loss if history.records else None,
                "terminated_early": history.terminated_early,
            }
        )

    def close(self) -> None:
        """Flush and close the journal (idempotent; crash-path safe)."""
        self.journal.close()
