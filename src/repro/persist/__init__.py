"""Durable state and crash recovery: checkpoints, journal, run store.

The persistence layer makes training runs survive the death of the host
process:

* :mod:`repro.persist.format` — the versioned, CRC-framed, atomically
  written checkpoint container;
* :mod:`repro.persist.journal` — the append-only, torn-tail-tolerant
  write-ahead journal of committed weight updates;
* :mod:`repro.persist.state` — bit-exact capture/restore of every live
  state surface (parameters, RNG streams, virtual clocks, breakers, the
  master's event heap);
* :mod:`repro.persist.checkpoint` — the :class:`TrainingCheckpointer`
  driving record/checkpoint/restore from inside the training loop;
* :mod:`repro.persist.store` — the persistent run database
  (:func:`list_runs` / :func:`load_run`);
* :mod:`repro.persist.resume` — :func:`resume`, which finishes an
  interrupted run bit-exactly.

Enable with ``EQCConfig(checkpoint_every=..., run_store=...)``; recover
with ``repro.persist.resume(run_dir, objective)``.
"""

from .checkpoint import JournalDivergenceError, TrainingCheckpointer
from .format import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_SCHEMA,
    CheckpointCorruptError,
    CheckpointSchemaError,
    atomic_write_bytes,
    atomic_write_json,
    read_checkpoint_file,
    write_checkpoint_file,
)
from .journal import JournalReadResult, JournalWriter, read_journal
from .resume import resume
from .store import (
    RunDirectory,
    RunStore,
    config_diff,
    config_from_dict,
    config_hash,
    config_to_dict,
    list_runs,
    load_run,
)

__all__ = [
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_SCHEMA",
    "CheckpointCorruptError",
    "CheckpointSchemaError",
    "JournalDivergenceError",
    "JournalReadResult",
    "JournalWriter",
    "RunDirectory",
    "RunStore",
    "TrainingCheckpointer",
    "atomic_write_bytes",
    "atomic_write_json",
    "config_diff",
    "config_from_dict",
    "config_hash",
    "config_to_dict",
    "list_runs",
    "load_run",
    "read_checkpoint_file",
    "read_journal",
    "resume",
    "write_checkpoint_file",
]
