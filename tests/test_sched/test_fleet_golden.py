"""Fleet golden: a scaled-down ``sched_fleet`` cell pinned bit for bit.

The benchmark of record checks ``sim_digest`` on 100 devices x 10k tenants;
this is the same cell shape small enough for tier-1 (20 devices x 2 000
tenants, spread load, foreground jobs at three arrival times, one transient
injected outage, one simulated hour), so a change to the tenant-job path
(arrival chunks, service lifecycle, job clock) that moves any timestamp, RNG
draw, job id or event count fails a pytest, not only a benchmark digest.

The hex values were captured on the commit *before* the hot path was
flattened (PR 16's parent) and must never be re-captured to make a
performance change pass.
"""

import hashlib

import pytest

from repro.sched import CloudScheduler, WorkloadGenerator
from repro.sched.tournament import clone_fleet

#: policy -> sha256 of the cell (see :func:`fleet_digest`), from the parent commit.
GOLDEN = {
    "fifo": "6f744f3e189c178c9fafc354afa2c3a82111342034d0fb6d3e2ed33d6f872fd9",
    "backpressure": "bd11ebe66a50ffb496da95f51845e31fa84ac39025c4c0374acc43835c6b01fe",
    "deadline": "0f860d7683ec46209f8f751e10855581b6d5ebe8fdf90fc01a6223cc82f35ed7",
    "fair_share": "e1a36a49eb2969df0a98da7be01b6adc1c7858a881997a9f1df9606654f36e3a",
}

DEVICES = 20
TENANTS = 2_000
CLIENTS = 4
FOREGROUND_ARRIVALS = (0.0, 1200.0, 2400.0)
HORIZON = 3600.0


def fleet_digest(policy: str) -> str:
    workload = WorkloadGenerator(TENANTS, jobs_per_tenant_hour=1.0, spread_load=True)
    scheduler = CloudScheduler(policy=policy, workload=workload, seed=1001)
    for qpu, model in clone_fleet(DEVICES):
        scheduler.register_device(qpu, model)
    names = scheduler.device_names[:CLIENTS]
    for at in FOREGROUND_ARRIVALS:
        for name in names:
            scheduler.submit(device_name=name, arrival=at, duration=600.0)
    # Opens while the first foreground job on that device is in service.
    scheduler.inject_outage(names[1], start=300.0, duration=900.0)
    scheduler.run_until_time(HORIZON)

    hasher = hashlib.sha256()
    hasher.update(f"{policy}:{scheduler.kernel.events_processed}".encode())
    for name, queue in scheduler.queues.items():
        hasher.update(
            f"{name}:{len(queue.completed)}:{queue.jobs_rejected}:"
            f"{queue.busy_seconds.hex()}".encode()
        )
        hasher.update(",".join(str(job.job_id) for job in queue.completed).encode())
    slo = scheduler.slo_metrics()
    hasher.update(",".join(f"{k}={float(slo[k]).hex()}" for k in sorted(slo)).encode())
    return hasher.hexdigest()


@pytest.mark.parametrize("policy", sorted(GOLDEN))
def test_fleet_cell_matches_parent_commit(policy):
    assert fleet_digest(policy) == GOLDEN[policy]
