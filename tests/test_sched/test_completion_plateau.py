"""Scheduler memory follows the live jobs, not the jobs served.

A device queue keeps no finished job: a completion leaves the job's id and
wait in two packed columns.  So after a 20-device, 2 000-tenant fleet cell
runs to 1 h and on to 2 h, the ``SchedJob`` objects alive in the process are
exactly the jobs waiting, the jobs in service and the handles the test
holds, at both horizons, while each queue's ``completed_ids`` and ``waits``
hold one entry per completed job.
"""

import gc

import pytest

from repro.sched import POLICY_REGISTRY, CloudScheduler, SchedJob, WorkloadGenerator
from repro.sched.tournament import clone_fleet

HORIZONS = (3600.0, 7200.0)


def _sched_jobs() -> list[SchedJob]:
    gc.collect()
    return [obj for obj in gc.get_objects() if type(obj) is SchedJob]


@pytest.mark.parametrize("policy", sorted(POLICY_REGISTRY))
def test_live_jobs_are_the_waiting_the_running_and_the_held(policy):
    # Jobs other tests left alive are held here, so their ids stay unique.
    stale = _sched_jobs()
    stale_ids = {id(job) for job in stale}
    workload = WorkloadGenerator(2_000, jobs_per_tenant_hour=1.0, spread_load=True)
    scheduler = CloudScheduler(policy=policy, workload=workload, seed=1001)
    for qpu, model in clone_fleet(20):
        scheduler.register_device(qpu, model)
    handles = [
        scheduler.submit(device_name=name, arrival=at, duration=600.0)
        for at in (0.0, 1800.0, 5400.0)
        for name in scheduler.device_names[:4]
    ]

    served = []
    for horizon in HORIZONS:
        scheduler.run_until_time(horizon)
        live = {id(job) for job in _sched_jobs() if id(job) not in stale_ids}
        expected = {id(job) for job in handles}
        for queue in scheduler.queues.values():
            expected.update(id(job) for job in queue.waiting)
            if queue.in_service is not None:
                expected.add(id(queue.in_service))
        assert live == expected

        devices = scheduler.metrics()["devices"]
        for name, queue in scheduler.queues.items():
            completed = devices[name]["jobs_completed"]
            assert len(queue.completed_ids) == len(queue.waits) == completed
        # Bounded by the admission cap, whatever the horizon: the served
        # jobs (twice as many by 2 h) are not among them.
        assert len(live) <= len(scheduler.queues) * (scheduler.max_queue_length + 1) + len(handles)
        served.append(sum(device["jobs_completed"] for device in devices.values()))
    assert served[1] > 2 * len(live) and served[1] > served[0]
