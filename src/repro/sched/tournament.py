"""Policy tournament: sweep (devices x tenants x policy) at fleet scale.

The tournament shows *which scheduling policy* lets EQC training survive
community load.  Each cell of a (device count x tenant level x policy) grid
clones the fast Table I devices out to a synthetic fleet, runs a spread-load
Poisson community of up to tens of thousands of tenants on it, and trains
the paper's 4-qubit Heisenberg VQE on the first ``clients`` devices with the
real asynchronous :class:`~repro.core.master.EQCMasterNode`: every gradient
job queues behind its device's tenant traffic in the event kernel, and each
client gets its next task the moment its job returns.

Each cell records the foreground throughput (``epochs_per_hour``), the
master's update count and mean gradient staleness, the fleet SLOs (p50/p99
queue wait, Jain fairness over per-tenant device seconds, rejected
fraction) and the kernel's wall-clock event rate.
:func:`publish_tournament` mirrors every cell into ``sched.tournament.*``
gauges for :func:`repro.telemetry.report.run_report`;
``python -m repro.sched.tournament [--smoke]`` prints the grid as JSON.

Determinism: the whole grid is a pure function of
:class:`TournamentConfig` — device seeds, workload streams, policy
decisions and the device physics all derive from the config seed and
device names.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace as _dc_replace

import numpy as np

from ..cloud.provider import CloudProvider
from ..cloud.queueing import QueueModel, queue_model_for
from ..core.client import EQCClientNode
from ..core.master import EQCMasterNode
from ..core.objective import EnergyObjective
from ..core.weighting import BOUNDS_MODERATE, WeightingConfig
from ..devices.catalog import TABLE_I
from ..devices.qpu import QPU
from ..telemetry import TELEMETRY as _telemetry
from ..vqa import AsgdRule, heisenberg_vqe_problem, vqe_task_cycle
from .policies import POLICY_REGISTRY
from .scheduler import DEFAULT_MAX_QUEUE_LENGTH, CloudScheduler
from .workload import WorkloadGenerator

__all__ = [
    "FLEET_TEMPLATES",
    "TournamentConfig",
    "SMOKE_CONFIG",
    "FULL_CONFIG",
    "CONTENTION_CONFIG",
    "clone_fleet",
    "run_cell",
    "run_tournament",
    "publish_tournament",
]

#: Fast Table I devices the synthetic fleet cycles through.  Santiago and
#: Manhattan are excluded: their week-to-month job clocks would turn every
#: tournament epoch into the terminated runs of the paper's Fig. 6.
FLEET_TEMPLATES: tuple[str, ...] = (
    "x2",
    "Belem",
    "Bogota",
    "Casablanca",
    "Lima",
    "Quito",
    "Manila",
    "Lagos",
)


#: Measurement shots per circuit of every foreground gradient job.
SHOTS = 128


@dataclass(frozen=True)
class TournamentConfig:
    """One tournament grid: the axes plus the fixed per-cell knobs.

    Attributes:
        device_counts: fleet sizes to sweep (clones of FLEET_TEMPLATES).
        tenant_levels: background community sizes to sweep.
        policies: policy registry names to race.
        num_epochs: EQC training epochs per cell.
        clients: devices the EQC master trains on (first N of the fleet).
        jobs_per_tenant_hour: community submission rate per tenant.
        seed: kernel and provider seed for every cell (cells differ by their
            axes only).
        downtime_seconds: base calibration outage per device per cycle.
        max_queue_length: admission cap per device queue.
    """

    device_counts: tuple[int, ...] = (25, 100)
    tenant_levels: tuple[int, ...] = (1000, 10000)
    policies: tuple[str, ...] = ("fifo", "fair_share", "backpressure", "deadline")
    num_epochs: int = 4
    clients: int = 8
    jobs_per_tenant_hour: float = 1.0
    seed: int = 7
    downtime_seconds: float = 20.0 * 60.0
    max_queue_length: int = DEFAULT_MAX_QUEUE_LENGTH

    def __post_init__(self) -> None:
        for axis in ("device_counts", "tenant_levels", "policies"):
            if not getattr(self, axis):
                raise ValueError(f"{axis} must not be empty")
        if min(self.device_counts) < 1:
            raise ValueError(f"device_counts must be >= 1 (got {self.device_counts!r})")
        if min(self.tenant_levels) < 0:
            raise ValueError(f"tenant_levels must be >= 0 (got {self.tenant_levels!r})")
        unknown = [name for name in self.policies if name not in POLICY_REGISTRY]
        if unknown:
            raise ValueError(f"policies must be in {sorted(POLICY_REGISTRY)} (got {unknown!r})")
        if self.num_epochs < 1:
            raise ValueError(f"num_epochs must be >= 1 (got {self.num_epochs!r})")
        if not 1 <= self.clients <= min(self.device_counts):
            raise ValueError(f"clients must be in [1, min(device_counts)] (got {self.clients!r})")


#: The quick grid: 2 policies x 2 tenant loads on one fleet size, 2 epochs.
SMOKE_CONFIG = TournamentConfig(
    device_counts=(25,),
    tenant_levels=(1000, 10_000),
    policies=("fifo", "backpressure"),
    num_epochs=2,
)

#: The tracked grid: 2 fleet sizes x {1k, 10k} tenants x 4 policies.
FULL_CONFIG = TournamentConfig()

#: The contention curve: all three devices of a small fleet train under a
#: quiet, a busy and a storming community.
CONTENTION_CONFIG = TournamentConfig(
    device_counts=(3,),
    tenant_levels=(0, 100, 1000),
    policies=("fifo", "fair_share"),
    num_epochs=2,
    clients=3,
)


def clone_fleet(count: int) -> list[tuple[QPU, QueueModel]]:
    """Build ``count`` synthetic devices by cloning the fast Table I specs.

    Clone ``k`` reuses template ``k % len(FLEET_TEMPLATES)`` with a unique
    name and a distinct drift seed, and inherits the template's community
    queue model (popularity, diurnal swing), so a 100-device fleet has the
    same *mix* of fast/noisy/volatile hardware as the paper's Table I.
    """
    if count < 1:
        raise ValueError("fleet size must be at least 1")
    fleet: list[tuple[QPU, QueueModel]] = []
    for k in range(count):
        template = FLEET_TEMPLATES[k % len(FLEET_TEMPLATES)]
        spec = TABLE_I[template]
        clone = _dc_replace(spec, name=f"{template}-{k:03d}", seed=spec.seed + 7919 * k)
        fleet.append((QPU(clone), queue_model_for(template)))
    return fleet


def run_cell(
    policy: str,
    num_devices: int,
    num_tenants: int,
    config: TournamentConfig = FULL_CONFIG,
) -> dict:
    """Train EQC on one (policy, devices, tenants) cell; returns its record.

    Wired like an :class:`~repro.core.ensemble.EQCEnsemble` on the event
    kernel: the first ``config.clients`` clones train (``BOUNDS_MODERATE``
    weights, ASGD at 0.1), the rest serve tenants only.  The community uses
    ``spread_load=True``: a fixed tenant population spreads across the fleet
    by popularity share, so adding devices dilutes per-device load.
    """
    workload = None
    if num_tenants > 0:
        workload = WorkloadGenerator(
            num_tenants=num_tenants,
            jobs_per_tenant_hour=config.jobs_per_tenant_hour,
            spread_load=True,
        )
    scheduler = CloudScheduler(
        policy=policy,
        workload=workload,
        seed=config.seed,
        downtime_seconds=config.downtime_seconds,
        max_queue_length=config.max_queue_length,
    )
    fleet = clone_fleet(num_devices)
    members = fleet[: config.clients]
    provider = CloudProvider(
        [qpu for qpu, _ in members],
        queue_models={qpu.name: model for qpu, model in members},
        seed=config.seed,
        shots=SHOTS,
        scheduler=scheduler,
    )
    for qpu, model in fleet[config.clients :]:
        scheduler.register_device(qpu, model)

    problem = heisenberg_vqe_problem()
    objective = EnergyObjective(problem.estimator)
    master = EQCMasterNode(
        objective=objective,
        clients=[EQCClientNode(objective, qpu, provider, shots=SHOTS) for qpu, _ in members],
        task_queue=vqe_task_cycle(problem.num_parameters),
        rule=AsgdRule(learning_rate=0.1),
        weighting=WeightingConfig(bounds=BOUNDS_MODERATE),
        initial_parameters=np.linspace(0.1, 1.6, problem.num_parameters),
        label=f"EQC[{policy}, {num_devices} devices, {num_tenants} tenants]",
    )
    wall_start = time.perf_counter()
    history = master.train(num_epochs=config.num_epochs)
    wall_seconds = time.perf_counter() - wall_start

    waits = [job.wait_seconds for job in scheduler.completed_jobs() if job.tenant == "eqc"]
    events = scheduler.kernel.events_processed
    return {
        "policy": policy,
        "devices": num_devices,
        "tenants": num_tenants,
        "epochs": config.num_epochs,
        "simulated_hours": history.total_hours(),
        "epochs_per_hour": history.epochs_per_hour(),
        "updates": history.total_updates,
        "mean_staleness": history.metadata["mean_staleness"],
        "foreground_wait_mean": sum(waits) / len(waits),
        "foreground_wait_max": max(waits),
        "events_processed": events,
        "wall_seconds": wall_seconds,
        "events_per_sec_wall": events / wall_seconds if wall_seconds > 0 else 0.0,
        **{f"slo_{key}": value for key, value in scheduler.slo_metrics().items()},
    }


def run_tournament(config: TournamentConfig = FULL_CONFIG) -> dict:
    """Sweep the full grid; returns ``{"config": ..., "cells": [...]}``."""
    cells = []
    for num_devices in config.device_counts:
        for num_tenants in config.tenant_levels:
            for policy in config.policies:
                cells.append(run_cell(policy, num_devices, num_tenants, config))
    return {
        "config": {
            "device_counts": list(config.device_counts),
            "tenant_levels": list(config.tenant_levels),
            "policies": list(config.policies),
            "num_epochs": config.num_epochs,
            "clients": config.clients,
            "shots": SHOTS,
            "jobs_per_tenant_hour": config.jobs_per_tenant_hour,
            "seed": config.seed,
        },
        "cells": cells,
    }


#: Per-cell fields mirrored into gauges (JSON key -> gauge suffix).
_GAUGE_FIELDS = {
    "epochs_per_hour": "epochs_per_hour",
    "foreground_wait_mean": "foreground_wait_mean",
    "slo_queue_wait_p50": "queue_wait_p50",
    "slo_queue_wait_p99": "queue_wait_p99",
    "slo_rejected_fraction": "rejected_fraction",
    "slo_tenant_fairness_jain": "fairness_jain",
}


def publish_tournament(result: dict, registry=None, prefix: str = "sched.tournament") -> None:
    """Mirror every tournament cell into ``<prefix>.*`` gauges.

    Each cell publishes one gauge per :data:`_GAUGE_FIELDS` entry, labelled
    by its grid coordinates, e.g.
    ``sched.tournament.epochs_per_hour{devices=25,policy=fifo,tenants=1000}``
    — the shape :func:`repro.telemetry.report.run_report` renders as the
    tournament table.
    """
    if registry is None:
        registry = _telemetry.registry
    for cell in result["cells"]:
        labels = {
            "policy": cell["policy"],
            "devices": cell["devices"],
            "tenants": cell["tenants"],
        }
        for field, suffix in _GAUGE_FIELDS.items():
            registry.gauge(f"{prefix}.{suffix}", **labels).set(cell[field])


def _main() -> None:  # pragma: no cover - CLI convenience
    import argparse
    import json

    parser = argparse.ArgumentParser(description="Run the scheduler policy tournament")
    parser.add_argument("--smoke", action="store_true", help="run the reduced 2 x 2 grid")
    args = parser.parse_args()
    result = run_tournament(SMOKE_CONFIG if args.smoke else FULL_CONFIG)
    print(json.dumps(result, indent=2))


if __name__ == "__main__":  # pragma: no cover
    _main()
