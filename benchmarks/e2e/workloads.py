"""The five benchmark workloads.

A workload is a closed loop with one client: a *segment* is one complete
user-level call (build the ensemble or scheduler, run it to the end, read its
report), and the next segment starts only when the previous one returned.
``run`` is the timed part and receives nothing but the segment seed (and a
scratch directory); ``inspect`` is untimed and turns what ``run`` returned
into correctness findings, a digest of the simulated results, the amount of
work done and the per-layer counts read from the objects' report surfaces.

Why these five (measured layer shares are in README.md):

* ``vqe4_stat`` — the paper's Fig. 6 job mix: circuit binding, the
  cloud -> backends -> devices -> simulator -> engine chain and counts ->
  energy all carry real weight; sched, faults and persist do nothing.
* ``qaoa10_dispatch`` — the same layers with tiny jobs on ten devices, so
  per-job and per-epoch Python dominates and the engine is a few percent.
* ``vqe4_contended`` — training through the event kernel against 1000
  background tenants: the only workload that mixes the clock with the physics.
* ``qaoa10_chaos_durable`` — the fault-injected submit path with a durable
  run store: the only workload where faults and persist can move a number.
* ``sched_fleet`` — no physics: 100 devices x 10k tenants under four policies
  for a fixed simulated horizon; sched is ~all of the wall.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import (
    DEFAULT_VQE_FLEET,
    CloudScheduler,
    EnergyObjective,
    EQCConfig,
    EQCEnsemble,
    FaultPlan,
    OutageWindow,
    WorkloadGenerator,
    heisenberg_vqe_problem,
    load_run,
    ring_maxcut_qaoa_problem,
)
from repro.sched.tournament import clone_fleet

VQE4_FLEET = ("x2", "Belem", "Bogota", "Casablanca")
SCHED_POLICIES = ("fifo", "backpressure", "deadline", "fair_share")


@dataclass
class Outcome:
    """What one segment produced, as seen from outside the program."""

    digest: str
    work: int
    errors: list[str] = field(default_factory=list)
    sim: dict[str, float] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    #: sched_fleet only: untraced host seconds and events per policy.
    policy_wall: dict[str, float] = field(default_factory=dict)
    policy_events: dict[str, int] = field(default_factory=dict)


def _floats(hasher, values) -> None:
    hasher.update(np.asarray(list(values), dtype=np.float64).tobytes())


def _history_digest(history) -> str:
    """sha256 over every epoch's loss, simulated time, parameters and weights."""
    hasher = hashlib.sha256()
    for record in history.records:
        _floats(hasher, (record.loss, record.sim_time_hours))
        _floats(hasher, record.parameters)
        _floats(hasher, (record.weights[k] for k in sorted(record.weights)))
    return hasher.hexdigest()


class TrainingWorkload:
    """One ``EQCEnsemble.train`` call per segment."""

    work_unit = "updates"

    def __init__(self, name, problem_factory, epochs, device_names, **config):
        self.name = name
        self.epochs = epochs
        self.device_names = tuple(device_names)
        self.config = config
        self._problem_factory = problem_factory

    def prepare(self) -> None:
        self.problem = self._problem_factory()
        self.objective = EnergyObjective(self.problem.estimator)

    def _config(self, seed: int, scratch: Path) -> EQCConfig:
        return EQCConfig(device_names=self.device_names, seed=seed, **self.config)

    def run(self, seed: int, scratch: Path):
        ensemble = EQCEnsemble(self.objective, self._config(seed, scratch))
        theta0 = self.problem.random_initial_parameters(seed=seed)
        history = ensemble.train(theta0, num_epochs=self.epochs)
        return ensemble, history

    def inspect(self, raw, seed: int, scratch: Path) -> Outcome:
        ensemble, history = raw
        errors = self._history_errors(history)
        meta = history.metadata
        counts = {
            "core.updates": history.total_updates,
            "core.jobs_dispatched": history.total_jobs,
            "core.mean_staleness": meta["mean_staleness"],
            "cloud.circuits": meta["circuits_executed"],
            "transpiler.hits": ensemble.transpile_cache.stats()["hits"],
            "transpiler.misses": ensemble.transpile_cache.stats()["misses"],
        }
        scheduler = meta.get("scheduler")
        if scheduler is not None:
            devices = scheduler["devices"].values()
            counts["sched.events"] = scheduler["events_processed"]
            counts["sched.jobs_completed"] = sum(d["jobs_completed"] for d in devices)
            counts["sched.jobs_rejected"] = sum(d["jobs_rejected"] for d in devices)
        return Outcome(
            digest=_history_digest(history),
            work=history.total_updates,
            errors=errors,
            sim={
                "sim_epochs_per_hour": history.epochs_per_hour(),
                "sim_final_loss": history.records[-1].loss if history.records else math.nan,
            },
            counts=counts,
        )

    def _history_errors(self, history) -> list[str]:
        errors = []
        cycle = self.objective.num_parameters
        if [r.epoch for r in history.records] != list(range(1, self.epochs + 1)):
            errors.append(f"expected epoch records 1..{self.epochs}")
        if history.total_updates != self.epochs * cycle:
            errors.append(f"total_updates {history.total_updates} != {self.epochs * cycle}")
        if not all(math.isfinite(r.loss) for r in history.records):
            errors.append("non-finite loss")
        times = [r.sim_time_hours for r in history.records]
        if any(b < a for a, b in zip(times, times[1:])):
            errors.append("sim_time_hours decreased")
        for record in history.records:
            if not all(math.isfinite(w) and w > 0 for w in record.weights.values()):
                errors.append(f"epoch {record.epoch}: non-finite or non-positive weight")
                break
        return errors


class ChaosDurableWorkload(TrainingWorkload):
    """Fault-injected training that journals and checkpoints every epoch."""

    dead_device = "Bogota"

    def _config(self, seed: int, scratch: Path) -> EQCConfig:
        plan = FaultPlan(
            seed=seed,
            transient_failure_rate=0.15,
            outages=(OutageWindow(self.dead_device, 0.0, permanent=True),),
        )
        return EQCConfig(
            device_names=self.device_names,
            seed=seed,
            fault_plan=plan,
            run_store=str(scratch / f"store-{seed}"),
            checkpoint_every=1,
        )

    def inspect(self, raw, seed: int, scratch: Path) -> Outcome:
        outcome = super().inspect(raw, seed, scratch)
        _, history = raw
        meta = history.metadata
        survivors = [d for d in self.device_names if d != self.dead_device]
        if meta["live_devices"] != survivors:
            outcome.errors.append(f"live devices {meta['live_devices']} != fleet minus {self.dead_device}")
        if meta["fault_stats"]["retired_devices"] != 1:
            outcome.errors.append("expected exactly one retired device")
        store = scratch / f"store-{seed}"
        try:
            # A fresh store's first run id.
            run = load_run(store, "run-000001")
            stored = run.history()
            if (_history_digest(stored), stored.total_updates, stored.total_jobs) != (
                outcome.digest, history.total_updates, history.total_jobs
            ):
                outcome.errors.append("stored history differs from the in-memory history")
            journal_bytes = run.journal_path.stat().st_size
        finally:
            shutil.rmtree(store, ignore_errors=True)
        faults, persist = meta["provider_faults"], meta["persist"]
        outcome.counts.update({
            "cloud.failed_jobs": faults["job_failures"],
            "faults.transient_failures": faults["transient_failures"],
            "faults.retries": faults["retries"],
            "faults.devices_retired": meta["fault_stats"]["retired_devices"],
            "persist.fsyncs": persist["journal_fsyncs"],
            "persist.checkpoints_written": persist["checkpoints_written"],
            "persist.journal_records": persist["journal_records"],
            "persist.journal_bytes": journal_bytes,
        })
        return outcome


class SchedFleetWorkload:
    """Four policies x (100 devices, 10k tenants) to a fixed simulated time."""

    name = "sched_fleet"
    work_unit = "events"
    devices = 100
    tenants = 10_000
    clients = 8
    foreground_arrivals = (0.0, 1800.0, 3600.0)
    foreground_seconds = 600.0
    # A fixed simulated horizon bounds the work: run-to-completion under
    # fair_share starves the foreground for tens of simulated hours.
    horizon = 5400.0

    def prepare(self) -> None:
        pass

    def run(self, seed: int, scratch: Path):
        cells = []
        for policy in SCHED_POLICIES:
            start = time.perf_counter()
            workload = WorkloadGenerator(self.tenants, jobs_per_tenant_hour=1.0, spread_load=True)
            scheduler = CloudScheduler(policy=policy, workload=workload, seed=seed)
            for qpu, model in clone_fleet(self.devices):
                scheduler.register_device(qpu, model)
            names = scheduler.device_names[: self.clients]
            handles = [
                scheduler.submit(device_name=name, arrival=at, duration=self.foreground_seconds)
                for at in self.foreground_arrivals
                for name in names
            ]
            scheduler.run_until_time(self.horizon)
            slo = scheduler.slo_metrics()
            cells.append((policy, scheduler, workload, handles, slo, time.perf_counter() - start))
        return cells

    def inspect(self, raw, seed: int, scratch: Path) -> Outcome:
        hasher = hashlib.sha256()
        outcome = Outcome(digest="", work=0)
        totals = {"sched.events": 0, "sched.jobs_completed": 0, "sched.jobs_rejected": 0}
        for policy, scheduler, workload, handles, slo, wall in raw:
            metrics = scheduler.metrics()
            events = metrics["events_processed"]
            hasher.update(f"{policy}:{events}".encode())
            accounted = 0
            for name, device in metrics["devices"].items():
                hasher.update(name.encode())
                _floats(hasher, (device["jobs_completed"], device["jobs_rejected"], device["busy_seconds"]))
                queue = scheduler.queues[name]
                accounted += (
                    device["jobs_completed"] + device["jobs_rejected"] + device["waiting"]
                    + (queue.in_service is not None)
                )
                totals["sched.jobs_completed"] += device["jobs_completed"]
                totals["sched.jobs_rejected"] += device["jobs_rejected"]
            _floats(hasher, (slo[k] for k in sorted(slo)))
            offered = workload.jobs_injected + len(handles)
            if accounted != offered:
                outcome.errors.append(f"{policy}: offered {offered} != accounted {accounted}")
            if any(h.rejected or h.device_name is None for h in handles):
                outcome.errors.append(f"{policy}: a foreground job was not admitted")
            if not all(math.isfinite(v) for v in slo.values()):
                outcome.errors.append(f"{policy}: non-finite SLO metric")
            totals["sched.events"] += events
            outcome.policy_wall[policy] = wall
            outcome.policy_events[policy] = events
        outcome.digest = hasher.hexdigest()
        outcome.work = totals["sched.events"]
        outcome.counts = dict(totals)
        return outcome


def build(name: str):
    if name == "vqe4_stat":
        return TrainingWorkload(name, heisenberg_vqe_problem, 8, VQE4_FLEET)
    if name == "qaoa10_dispatch":
        return TrainingWorkload(name, ring_maxcut_qaoa_problem, 100, DEFAULT_VQE_FLEET)
    if name == "vqe4_contended":
        return TrainingWorkload(
            name, heisenberg_vqe_problem, 6, VQE4_FLEET,
            scheduling_policy="deadline", background_tenants=1000,
        )
    if name == "qaoa10_chaos_durable":
        return ChaosDurableWorkload(name, ring_maxcut_qaoa_problem, 60, DEFAULT_VQE_FLEET)
    if name == "sched_fleet":
        return SchedFleetWorkload()
    raise KeyError(name)
