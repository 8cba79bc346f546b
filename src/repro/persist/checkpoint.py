"""Resume-exact training checkpoints over the run store.

The :class:`TrainingCheckpointer` is the hook object the master's training
loop drives.  It owns the run's write-ahead journal and its checkpoint
generations, and implements the recovery contract:

* **record** — every committed weight update appends one journal frame
  (task, client, gradient, new value, weight, version) and every epoch record
  the history gains appends one more, so the run's committed progress and its
  history survive a process kill between checkpoints;
* **checkpoint** — at every ``checkpoint_every``-th epoch boundary the
  training state (master loop, event heap, the count and digest of the
  journaled epoch records, environment) is written as one atomic checkpoint
  generation, with the journal fsynced first so no checkpoint ever points
  past its own journal;
* **restore** — recovery loads the newest checkpoint that passes
  verification (a corrupted generation falls back to the previous one,
  counted in :attr:`fallbacks`; a store of another schema is refused),
  rebuilds the history from the journal's epoch frames, restores every
  captured state surface, and re-executes the deterministic loop from there.
  Each replayed update and epoch record is compared bit-for-bit against its
  journal frame — the journal *is* the committed-progress ledger, and a wrong
  seed, drifted config, or changed physics surfaces as
  :class:`JournalDivergenceError` on the first replayed update instead of
  silently diverging.

Because the whole simulation is deterministic given the captured state
(every random draw comes from a restored RNG stream), re-execution after
restore is bit-exact with the uninterrupted run — the property the
resume-exactness goldens pin.

**Cost model.**  A checkpoint forces nothing to happen and repeats nothing
already durable: a job whose physics is still parked is stored parked (waves
are as wide with a checkpoint every epoch as with none), and an epoch record
is written once, to the journal — a generation carries their count and a
running digest of their frames, and so does ``history.json``.  A generation
is O(state): flat rows built straight from the owners' snapshot methods, its
floats packed as float64 columns (no ``repr``), encoded whole every time.
What remains per generation is the owners' RNG state reads, the JSON of the
rows, the temp-file write and rename, and the journal fsync.
"""

from __future__ import annotations

import hashlib
import os
import time
from array import array
from collections import deque
from pathlib import Path
from typing import TYPE_CHECKING

from .._fields import require
from ..telemetry import TELEMETRY as _telemetry
from .format import (
    CheckpointCorruptError,
    CheckpointSchemaError,
    atomic_write_json,
    encode_json,
    read_checkpoint_file,
    write_checkpoint_file,
)
from .journal import JournalWriter, read_journal
from .state import (
    restore_environment,
    restore_inflight,
    restore_parked,
    restore_record,
    snapshot_environment,
    snapshot_history,
    snapshot_inflight,
    snapshot_record,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cloud.provider import CloudProvider
    from ..core.history import TrainingHistory
    from ..core.master import EQCMasterNode
    from ..faults.injector import FaultInjector
    from .store import RunDirectory

__all__ = ["JournalDivergenceError", "TrainingCheckpointer"]


class JournalDivergenceError(RuntimeError):
    """A replayed frame does not match the journal bit-for-bit, or the verified
    journal ends short of, or differs from, the one its checkpoint was written over."""


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
        require(self, "checkpoint_every", checkpoint_every, low=1, integer=True)
        require(self, "retention", retention, low=1, integer=True)
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
        #: Generations on disk, oldest first and each once (seeded from the
        #: directory so a resumed checkpointer keeps applying retention to
        #: pre-crash files; in memory afterwards — no scan per checkpoint).
        self._generations: list[Path] = [Path(p) for p in self.run.checkpoint_paths()]
        self._last_checkpoint_epoch = 0
        self._restore_sections: dict | None = None
        #: Journal frames past the restored checkpoint: the replay is verified
        #: against them before anything new is appended.
        self._verify: deque[dict] = deque()
        #: The history's epoch frames as the journal holds them, and the
        #: running digest of their bytes.
        self._epoch_frames: list[dict] = []
        self._digest = hashlib.sha256()
        if resume:
            self._prepare_restore()
        self.journal = JournalWriter(self.run.journal_path)

    # ------------------------------------------------------------------
    # restore
    # ------------------------------------------------------------------
    def _prepare_restore(self) -> None:
        """Pick the newest verifiable checkpoint and split the journal at it.

        Generations are tried newest-first; one that fails any integrity check
        (truncation, bit flip, missing file) is recorded in :attr:`fallbacks`
        and the previous one is tried — retention guarantees older ones exist.
        With no valid checkpoint at all (the process died before the first
        epoch) the run restarts from scratch, with the *entire* journal as the
        replay verification suffix.  A generation of another schema is not
        damage: it is re-raised, or that restart would append this schema's
        frames behind the other store's journal.
        """
        for path in sorted(self.run.checkpoint_paths(), reverse=True):
            try:
                sections = read_checkpoint_file(path)
                if not _SECTIONS <= sections.keys():  # a damaged name in the header
                    raise CheckpointCorruptError(f"{path}: a section is missing")
                self._restore_sections = sections
                break
            except CheckpointSchemaError:
                raise
            except CheckpointCorruptError:
                self.fallbacks.append(str(path))
                if _telemetry.enabled:
                    _telemetry.registry.counter("persist.checkpoint_fallbacks").inc()
        updates = epochs = 0  # what the restored checkpoint holds
        digest = self._digest.hexdigest()
        if self._restore_sections is not None:
            meta, head = self._restore_sections["meta"], self._restore_sections["history"]
            updates, epochs, digest = meta["updates_applied"], head["record_count"], head["digest"]
            self._last_checkpoint_epoch = meta["epoch_completed"]
        journal = read_journal(self.run.journal_path)
        for frame in journal.records:
            if "update" in frame:
                covered = frame["update"] <= updates
            else:
                covered = len(self._epoch_frames) < epochs
                if covered:
                    self._count_epoch(frame)
            if not covered:
                self._verify.append(frame)
        held = (len(self._epoch_frames), self._digest.hexdigest())
        if journal.committed_updates < updates or held != (epochs, digest):
            # Synced before every commit, the journal can only disagree with a
            # checkpoint if a frame inside it is damaged; appending there
            # would leave a silent gap in the ledger.
            raise JournalDivergenceError(
                f"{journal.path}: verified up to update {journal.committed_updates}, epoch "
                f"records {held}; the restored checkpoint holds {updates}, {(epochs, digest)}"
            )
        if journal.torn_tail_bytes:  # or the writer would append behind the tear
            os.truncate(self.run.journal_path, journal.valid_bytes)

    def _count_epoch(self, frame: dict, body: bytes | None = None) -> None:
        self._epoch_frames.append(frame)
        self._digest.update(body or encode_json(frame).encode())

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
        meta, ms = sections["meta"], sections["master"]
        if len(ms["values"]) != master.state.num_parameters:
            raise CheckpointCorruptError(
                f"checkpoint carries {len(ms['values'])} parameters, "
                f"the objective has {master.state.num_parameters}"
            )
        master.restore_state(ms)
        now, epoch_sim_start, master._start_time = meta["clock"]

        # The head is this train call's own; the records are the journal prefix's.
        for frame in self._epoch_frames:
            history.add(restore_record(frame))

        restore_environment(
            sections["environment"],
            self._provider,
            master.clients,
            injector=self._injector,
            health=master.health,
        )
        # Parked jobs re-park in the order the provider held them (not the
        # heap's), each back with the master under a fresh job id.
        clients_by_name = {client.name: client for client in master.clients}
        entries = sections["pending"]
        parked = [entry for entry in entries if entry["parked"] is not None]
        parked.sort(key=lambda entry: entry["parked"][-1])  # the job's parked position
        job_ids = {
            entry["sequence"]: master.register(
                restore_parked(entry, clients_by_name[entry["client"]])
            )
            for entry in parked
        }
        pending = [
            restore_inflight(entry, clients_by_name, job_ids.get(entry["sequence"], -1))
            for entry in entries
        ]
        if _telemetry.enabled:
            _telemetry.tracer.add_span(
                "checkpoint restore",
                "persist",
                start_ns,
                time.time_ns(),
                args={
                    "epoch": meta["epoch_completed"],
                    "journal_suffix": len(self._verify),
                    "fallbacks": len(self.fallbacks),
                },
            )
        return pending, meta["sequence"], now, meta["epoch_completed"], epoch_sim_start

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
        self._commit(record)

    def _commit(self, frame: dict) -> bytes | None:
        """Append one frame to the journal (returning its JSON body) — or, while
        replaying, verify it bit-for-bit against the frame the interrupted run
        already left there."""
        if not self._verify:
            return self.journal.append(frame)
        expected = self._verify.popleft()
        if expected != frame:
            kind = "update" if "update" in frame else "epoch"
            mismatched = sorted(
                key for key in set(expected) | set(frame) if expected.get(key) != frame.get(key)
            )
            raise JournalDivergenceError(
                f"replayed {kind} {frame[kind]} diverges from the "
                f"journal in {mismatched}: journal={expected!r}, "
                f"replayed={frame!r} — the resumed environment does not "
                f"match the one that wrote this run"
            )

    def _journal_records(self, history: "TrainingHistory") -> None:
        """Journal (or, on replay, verify) the epoch records the history gained."""
        for record in history.records[len(self._epoch_frames) :]:
            frame = snapshot_record(record)
            self._count_epoch(frame, self._commit(frame))

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
        """Journal new epoch records; checkpoint at configured epoch boundaries.

        The hook fires at the end of every job iteration; a checkpoint is
        written only in the iteration whose update completed a
        ``checkpoint_every``-multiple epoch — the loop state is then exactly
        "about to pop the next event", which is where restore re-enters.
        """
        self._journal_records(history)
        if (
            epoch_completed <= self._last_checkpoint_epoch
            or epoch_completed % self.checkpoint_every != 0
        ):
            return
        telemetry_on = _telemetry.enabled
        # The journal must be durable before the checkpoint that supersedes
        # its prefix commits — a checkpoint may never point past its journal.
        # Its fsync is timed apart from the checkpoint it precedes.
        start = time.perf_counter() if telemetry_on else 0.0
        self.journal.sync()
        if telemetry_on:
            synced = time.perf_counter()
            _telemetry.registry.histogram("persist.journal_sync_seconds").observe(synced - start)
            start = synced
        sections = {
            "meta": {
                "updates_applied": master.telemetry.updates_applied,
                "epoch_completed": epoch_completed,
                "sequence": sequence,
                "label": master.label,
                "clock": array("d", (now, epoch_sim_start, master._start_time)),
            },
            "master": master.snapshot_state(),
            "pending": [snapshot_inflight(entry, master) for entry in pending],
            # The records are the journal's first ``record_count`` epoch
            # frames, whose bytes hash to ``digest``.
            "history": {
                "records": [],
                "record_count": len(self._epoch_frames),
                "digest": self._digest.hexdigest(),
            },
            "environment": snapshot_environment(
                self._provider,
                master.clients,
                injector=self._injector,
                health=master.health,
            ),
        }
        path = self.run.checkpoints_dir / f"ckpt-{epoch_completed:06d}.eqc"
        size = write_checkpoint_file(path, sections)
        if path not in self._generations:  # a fallback resume re-writes one
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
        """Persist the finished run: final history, telemetry, manifest.

        ``history.json`` is the head, the record count and the digest; the
        records are the journal's epoch frames (a partial last epoch, recorded
        after the loop, is journaled here).
        """
        self._journal_records(history)
        self.close()
        history.metadata["persist"] = {
            "journal_records": self.journal.records_written,
            "journal_fsyncs": self.journal.fsyncs,
            "checkpoints_written": self.checkpoints_written,
            "fallbacks": len(self.fallbacks),
        }
        atomic_write_json(
            self.run.history_path,
            {
                **snapshot_history(history),
                "record_count": len(self._epoch_frames),
                "digest": self._digest.hexdigest(),
            },
        )
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
