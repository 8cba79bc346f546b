"""Policy tournament: sweep (devices x tenants x policy) at fleet scale.

The contention sweep in ``benchmarks/bench_sched.py`` shows *that* EQC
training collapses under community load; the tournament shows *which policy
survives it*.  Each cell of a (device count x tenant level x policy) grid
simulates a synthetic fleet — the fast Table I devices cloned out to 25, 100
or more QPUs — under a spread-load Poisson community of up to tens of
thousands of tenants, and drives a foreground **proxy EQC master** through
``num_epochs`` training epochs: one fixed-cost foreground job per client
device per epoch, the epoch completing when the last client finishes, the
next epoch submitted at that instant.  The circuit physics is replaced by a
fixed device-seconds price, which keeps a 16-cell grid at 10k tenants
affordable.

The proxy is *not* the loop of :class:`~repro.core.master.EQCMasterNode`:
it is barrier-synchronous (the slowest client gates every epoch), while the
real master has no barrier and hands each client its next task the moment
its job returns.  The two disagree under contention: on the 25-device x
1000-tenant cell of :data:`SMOKE_CONFIG`, a prototype driving the real
master read 0.99 epochs/hour under ``backpressure`` and 2.60 under
``deadline``, against the proxy's 3.66 and 4.49.  Moving :func:`run_cell`
onto the master therefore changes the recorded policy claim
(backpressure/deadline above 3 epochs/hour at 1000 tenants) and needs its
own re-record.

Each cell records the foreground throughput (``epochs_per_hour``), the
fleet SLOs (p50/p99 queue wait, Jain fairness over per-tenant device
seconds, rejected fraction) and the kernel's wall-clock event rate, so the
throughput-vs-fairness tradeoff is a tracked curve in ``BENCH_sched.json``
rather than an anecdote.  :func:`publish_tournament` mirrors every cell into
``sched.tournament.*`` gauges so :func:`repro.telemetry.report.run_report`
can render the grid as a table.

Determinism: the whole grid is a pure function of
:class:`TournamentConfig` — cloned device seeds, workload streams and
policy decisions all derive from the config seed and device names.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace as _dc_replace

from ..cloud.queueing import QueueModel, queue_model_for
from ..devices.catalog import TABLE_I
from ..devices.qpu import QPU
from ..telemetry import TELEMETRY as _telemetry
from .scheduler import DEFAULT_MAX_QUEUE_LENGTH, CloudScheduler
from .workload import WorkloadGenerator

__all__ = [
    "FLEET_TEMPLATES",
    "TournamentConfig",
    "SMOKE_CONFIG",
    "FULL_CONFIG",
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


@dataclass(frozen=True)
class TournamentConfig:
    """One tournament grid: the axes plus the fixed per-cell knobs.

    Attributes:
        device_counts: fleet sizes to sweep (clones of FLEET_TEMPLATES).
        tenant_levels: background community sizes to sweep.
        policies: policy registry names to race.
        num_epochs: foreground proxy epochs per cell.
        clients: devices the proxy EQC master trains on (first N of fleet).
        epoch_job_seconds: device seconds of one client's epoch job — the
            fixed stand-in for a full gradient batch, sized like a heavy
            EQC step so epochs/hour is comparable to the real-EQC
            contention sweep.
        jobs_per_tenant_hour: community submission rate per tenant.
        seed: kernel seed for every cell (cells differ by their axes only).
        downtime_seconds: base calibration outage per device per cycle.
        max_queue_length: admission cap per device queue.
    """

    device_counts: tuple[int, ...] = (25, 100)
    tenant_levels: tuple[int, ...] = (1000, 10000)
    policies: tuple[str, ...] = ("fifo", "fair_share", "backpressure", "deadline")
    num_epochs: int = 4
    clients: int = 8
    epoch_job_seconds: float = 600.0
    jobs_per_tenant_hour: float = 1.0
    seed: int = 7
    downtime_seconds: float = 20.0 * 60.0
    max_queue_length: int = DEFAULT_MAX_QUEUE_LENGTH


#: The CI grid: 2 policies x 2 tenant loads on one fleet size, 2 epochs.
SMOKE_CONFIG = TournamentConfig(
    device_counts=(25,),
    tenant_levels=(1000, 10_000),
    policies=("fifo", "backpressure"),
    num_epochs=2,
)

#: The tracked grid: 2 fleet sizes x {1k, 10k} tenants x 4 policies.
FULL_CONFIG = TournamentConfig()


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
    """Simulate one (policy, devices, tenants) cell; returns its record.

    The background community uses ``spread_load=True`` — a fixed tenant
    population spreads across the fleet by popularity share, so adding
    devices dilutes per-device load (the fleet-scaling question the
    tournament exists to answer).
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
    for qpu, model in clone_fleet(num_devices):
        scheduler.register_device(qpu, model)
    clients = list(scheduler.device_names)[: config.clients]

    wall_start = time.perf_counter()
    epoch_end = 0.0
    foreground_waits: list[float] = []
    for _epoch in range(config.num_epochs):
        jobs = [
            scheduler.submit(
                device_name=name,
                arrival=epoch_end,
                tenant="eqc",
                num_circuits=4,
                duration=config.epoch_job_seconds,
                foreground=True,
            )
            for name in clients
        ]
        for job in jobs:
            scheduler.run_until_complete(job)
        epoch_end = max(job.finish_time for job in jobs)
        foreground_waits.extend(job.wait_seconds for job in jobs)
    wall_seconds = time.perf_counter() - wall_start

    simulated_hours = epoch_end / 3600.0
    slo = scheduler.slo_metrics()
    events = scheduler.kernel.events_processed
    return {
        "policy": policy,
        "devices": num_devices,
        "tenants": num_tenants,
        "epochs": config.num_epochs,
        "simulated_hours": simulated_hours,
        "epochs_per_hour": (
            config.num_epochs / simulated_hours if simulated_hours > 0 else 0.0
        ),
        "foreground_wait_mean": (
            sum(foreground_waits) / len(foreground_waits)
            if foreground_waits
            else 0.0
        ),
        "foreground_wait_max": max(foreground_waits) if foreground_waits else 0.0,
        "events_processed": events,
        "wall_seconds": wall_seconds,
        "events_per_sec_wall": events / wall_seconds if wall_seconds > 0 else 0.0,
        **{f"slo_{key}": value for key, value in slo.items()},
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
            "epoch_job_seconds": config.epoch_job_seconds,
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
    parser.add_argument("--smoke", action="store_true", help="run the reduced CI grid")
    args = parser.parse_args()
    result = run_tournament(SMOKE_CONFIG if args.smoke else FULL_CONFIG)
    print(json.dumps(result, indent=2))


if __name__ == "__main__":  # pragma: no cover
    _main()
