"""The persistent run store: a local, queryable database of training runs.

Layout — one directory per run under the store root::

    <root>/
      run-000001/
        manifest.json        config + config hash + seeds + run inputs + status
        journal.jsonl        write-ahead journal: committed weight updates and
                             epoch records (the history's only copy of them)
        checkpoints/
          ckpt-000004.eqc    checkpoint generations (retention-bounded)
        history.json         final history head: label, fleet, totals, metadata,
                             and the count and digest of the journal's epoch
                             records (written on completion)
        telemetry.json       metrics snapshot (when telemetry was enabled)

Run ids are sequential (``run-NNNNNN``), so listings sort chronologically
without wall-clock timestamps and two runs never collide.  The manifest
records everything needed to rebuild the run's ensemble for resume: the full
serialized config, its hash (durability knobs excluded — they cannot change
the trajectory), the initial parameters, and the epoch/recording inputs.

:func:`list_runs` / :func:`load_run` are the query surface the ROADMAP's
run-database item asks for, and the substrate a future service layer's job
store sits on.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

from .format import atomic_write_json, encode_json

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.ensemble import EQCConfig
    from ..core.history import TrainingHistory

__all__ = [
    "MANIFEST_SCHEMA",
    "DURABILITY_FIELDS",
    "config_to_dict",
    "config_from_dict",
    "config_hash",
    "config_diff",
    "RunDirectory",
    "RunStore",
    "list_runs",
    "load_run",
]

#: Manifest layout version (independent of the checkpoint container schema).
MANIFEST_SCHEMA = 1

#: Config fields that select durability behaviour without affecting the
#: training trajectory — excluded from the config hash, and allowed to
#: differ on resume.
DURABILITY_FIELDS = frozenset(
    {"run_store", "checkpoint_every", "checkpoint_retention"}
)

_RUN_ID_PATTERN = re.compile(r"^run-(\d{6})$")


# ---------------------------------------------------------------------------
# config serialization
# ---------------------------------------------------------------------------

def config_to_dict(config: "EQCConfig") -> dict:
    """Serialize an :class:`EQCConfig` to plain JSON-able data.

    Only checkpointable configurations are serializable: the scheduler path
    carries a live policy object and is rejected by config validation before
    a run store is ever created.
    """
    if config.scheduling_policy is not None:
        raise ValueError(
            "configs with a scheduling_policy are not serializable "
            "(checkpointing rejects the scheduler path)"
        )
    return {
        "device_names": list(config.device_names),
        "shots": config.shots,
        "learning_rate": config.learning_rate,
        "weight_bounds": (
            None
            if config.weight_bounds is None
            else {"low": config.weight_bounds.low, "high": config.weight_bounds.high}
        ),
        "refresh_weights": config.refresh_weights,
        "seed": config.seed,
        "label": config.label,
        "queue_models": (
            None
            if config.queue_models is None
            else {name: asdict(model) for name, model in config.queue_models.items()}
        ),
        "background_tenants": config.background_tenants,
        "tenant_jobs_per_hour": config.tenant_jobs_per_hour,
        # describe() flattens the windows already; it is the canonical JSON form
        # (infinite durations survive via JSON Infinity).
        "fault_plan": None if config.fault_plan is None else config.fault_plan.describe(),
        "retry_policy": (
            None if config.retry_policy is None else asdict(config.retry_policy)
        ),
        "dispatch_deadline": config.dispatch_deadline,
        "min_live_devices": config.min_live_devices,
        "checkpoint_every": config.checkpoint_every,
        "run_store": config.run_store,
        "checkpoint_retention": config.checkpoint_retention,
    }


def config_from_dict(data: Mapping) -> "EQCConfig":
    """Rebuild an :class:`EQCConfig` from its serialized form."""
    from ..cloud.queueing import QueueModel
    from ..core.ensemble import EQCConfig
    from ..core.weighting import WeightBounds
    from ..faults.plan import FaultPlan, OutageWindow
    from ..faults.retry import RetryPolicy

    bounds = data["weight_bounds"]
    queue_models = data["queue_models"]
    plan = data["fault_plan"]
    retry = data["retry_policy"]
    # Input from disk: numbers go in unconverted, so a constructor refuses a bad one by name.
    return EQCConfig(
        device_names=tuple(data["device_names"]),
        shots=data["shots"],
        learning_rate=data["learning_rate"],
        weight_bounds=(
            None
            if bounds is None
            else WeightBounds(low=bounds["low"], high=bounds["high"])
        ),
        refresh_weights=bool(data["refresh_weights"]),
        seed=data["seed"],
        label=str(data["label"]),
        queue_models=(
            None
            if queue_models is None
            else {
                name: QueueModel(**model) for name, model in queue_models.items()
            }
        ),
        background_tenants=data["background_tenants"],
        tenant_jobs_per_hour=data["tenant_jobs_per_hour"],
        fault_plan=(
            None
            if plan is None
            else FaultPlan(
                seed=plan["seed"],
                outages=tuple(OutageWindow(**w) for w in plan["outages"]),
                transient_failure_rate=plan["transient_failure_rate"],
                result_timeout_rate=plan["result_timeout_rate"],
                result_delay_seconds=plan["result_delay_seconds"],
                calibration_blackouts=tuple(
                    OutageWindow(**w) for w in plan["calibration_blackouts"]
                ),
            )
        ),
        retry_policy=None if retry is None else RetryPolicy(**retry),
        dispatch_deadline=data["dispatch_deadline"],
        min_live_devices=data["min_live_devices"],
        checkpoint_every=data["checkpoint_every"],
        run_store=data["run_store"],
        checkpoint_retention=data["checkpoint_retention"],
    )


def config_hash(data: Mapping) -> str:
    """SHA-256 over the canonical serialized config, durability knobs excluded."""
    trimmed = {k: v for k, v in data.items() if k not in DURABILITY_FIELDS}
    canonical = json.dumps(trimmed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def config_diff(a: Mapping, b: Mapping) -> list[str]:
    """Names of trajectory-affecting config fields that differ, sorted."""
    return sorted(
        key
        for key in set(a) | set(b)
        if key not in DURABILITY_FIELDS and a.get(key) != b.get(key)
    )


# ---------------------------------------------------------------------------
# run directories
# ---------------------------------------------------------------------------

class RunDirectory:
    """One run's on-disk layout (paths + manifest access)."""

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)

    @property
    def run_id(self) -> str:
        return self.path.name

    @property
    def manifest_path(self) -> Path:
        return self.path / "manifest.json"

    @property
    def journal_path(self) -> Path:
        return self.path / "journal.jsonl"

    @property
    def checkpoints_dir(self) -> Path:
        return self.path / "checkpoints"

    @property
    def history_path(self) -> Path:
        return self.path / "history.json"

    @property
    def telemetry_path(self) -> Path:
        return self.path / "telemetry.json"

    # ------------------------------------------------------------------
    def manifest(self) -> dict:
        with open(self.manifest_path) as handle:
            return json.load(handle)

    def checkpoint_paths(self) -> list[Path]:
        """All checkpoint generations, oldest first."""
        if not self.checkpoints_dir.is_dir():
            return []
        return sorted(self.checkpoints_dir.glob("ckpt-*.eqc"))

    def status(self) -> str:
        return str(self.manifest().get("status", "unknown"))

    def history(self) -> "TrainingHistory":
        """The final history of a completed run: the head from ``history.json``,
        the records from the journal's epoch frames — only if the verified
        journal holds exactly the records the head counts and digests."""
        from .checkpoint import JournalDivergenceError
        from .journal import read_journal
        from .state import restore_history

        if not self.history_path.exists():
            raise FileNotFoundError(
                f"run {self.run_id!r} has no final history "
                f"(status {self.status()!r}); resume it to completion first"
            )
        head = json.loads(self.history_path.read_text())
        frames = [frame for frame in read_journal(self.journal_path).records if "epoch" in frame]
        digest = hashlib.sha256(b"".join(encode_json(frame).encode() for frame in frames))
        held = (len(frames), digest.hexdigest())
        expected = (head.get("record_count"), head.get("digest"))
        if held != expected:
            raise JournalDivergenceError(
                f"{self.journal_path}: verified epoch records {held}; history.json holds {expected}"
            )
        return restore_history(head, frames)

    # ------------------------------------------------------------------
    def write_manifest(self, manifest: dict) -> None:
        atomic_write_json(self.manifest_path, manifest)

    def mark_complete(self, summary: dict) -> None:
        """Flip the manifest to ``complete`` with a result summary, atomically."""
        manifest = self.manifest()
        manifest["status"] = "complete"
        manifest["summary"] = summary
        self.write_manifest(manifest)

    def __repr__(self) -> str:
        return f"RunDirectory({str(self.path)!r})"


class RunStore:
    """The store root: creates, lists, and loads run directories."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    def _next_run_id(self) -> str:
        highest = 0
        for entry in self.root.iterdir():
            match = _RUN_ID_PATTERN.match(entry.name)
            if match and entry.is_dir():
                highest = max(highest, int(match.group(1)))
        return f"run-{highest + 1:06d}"

    def create_run(
        self,
        config: "EQCConfig",
        initial_parameters,
        num_epochs: int,
        record_every: int = 1,
        run_id: str | None = None,
    ) -> RunDirectory:
        """Register a new run: directory, manifest, empty journal slot."""
        run_id = run_id if run_id is not None else self._next_run_id()
        run = RunDirectory(self.root / run_id)
        if run.path.exists():
            raise FileExistsError(f"run {run_id!r} already exists in {self.root}")
        run.checkpoints_dir.mkdir(parents=True)
        serialized = config_to_dict(config)
        run.write_manifest(
            {
                "schema": MANIFEST_SCHEMA,
                "run_id": run_id,
                "status": "running",
                "config": serialized,
                "config_hash": config_hash(serialized),
                "seed": config.seed,
                "label": config.describe(),
                "initial_parameters": [float(v) for v in initial_parameters],
                "num_epochs": int(num_epochs),
                "record_every": int(record_every),
            }
        )
        return run

    # ------------------------------------------------------------------
    def run_ids(self) -> list[str]:
        return sorted(
            entry.name
            for entry in self.root.iterdir()
            if entry.is_dir() and (entry / "manifest.json").exists()
        )

    def list_runs(self) -> list[dict]:
        """Manifest summaries of every run, oldest first."""
        out = []
        for run_id in self.run_ids():
            manifest = RunDirectory(self.root / run_id).manifest()
            out.append(
                {
                    "run_id": run_id,
                    "status": manifest.get("status", "unknown"),
                    "label": manifest.get("label", ""),
                    "seed": manifest.get("seed"),
                    "num_epochs": manifest.get("num_epochs"),
                    "config_hash": manifest.get("config_hash"),
                    "summary": manifest.get("summary"),
                }
            )
        return out

    def load_run(self, run_id: str) -> RunDirectory:
        run = RunDirectory(self.root / run_id)
        if not run.manifest_path.exists():
            raise KeyError(f"no run {run_id!r} in store {self.root}")
        return run


def list_runs(root: str | os.PathLike) -> list[dict]:
    """Manifest summaries of every run under a store root."""
    return RunStore(root).list_runs()


def load_run(root: str | os.PathLike, run_id: str) -> RunDirectory:
    """One run's :class:`RunDirectory` by id."""
    return RunStore(root).load_run(run_id)
