"""Queueing oracles: the event kernel's device queues against queueing theory.

Every other scheduler test pins a previous output or a lifecycle invariant;
these state what a capacity-one queue *should* do, whatever the policy code
looks like:

* **Lindley's recursion.**  On a fifo device with no admission cap and no
  downtime, each job starts at ``max(arrival, previous finish)``, exactly in
  float64; the vectorised closed form (``X = cumsum(S - dA)``, ``W = X -
  min-prefix(X)``) gives the same waits to rounding.
* **Busy-time balance.**  Under every policy, with a cap and an outage that
  cuts a running job, a device's ``busy_seconds`` is the sum of its completed
  jobs' service seconds, added in completion order.

Jobs are read through the completion spy of ``tests/_reference``.
"""

import numpy as np
import pytest

from _reference.completions import spy_completions
from repro.cloud.queueing import queue_model_for
from repro.devices.catalog import build_qpu
from repro.reduction import ordered_sum
from repro.sched import POLICY_REGISTRY, CloudScheduler, WorkloadGenerator

HOUR = 3600.0


def _fleet(policy, devices, seed, tenants, rate, **scheduler_kwargs):
    scheduler = CloudScheduler(
        policy=policy,
        workload=WorkloadGenerator(tenants, jobs_per_tenant_hour=rate),
        seed=seed,
        **scheduler_kwargs,
    )
    for name in devices:
        scheduler.register_device(build_qpu(name), queue_model_for(name))
    return scheduler


@pytest.mark.parametrize("seed", [1, 2])
def test_fifo_starts_follow_lindleys_recursion(seed):
    devices = ("Belem", "Casablanca")
    scheduler = _fleet(
        "fifo", devices, seed, tenants=60, rate=2.0,
        downtime_seconds=0.0, max_queue_length=None,
    )
    finished = spy_completions(scheduler)
    scheduler.run_until_time(6 * HOUR)
    for name in devices:
        jobs = finished[name]
        assert len(jobs) > 50
        previous_finish, busy_arrivals = 0.0, 0
        for job in jobs:
            busy_arrivals += job.arrival_time < previous_finish
            assert job.start_time == max(job.arrival_time, previous_finish)
            assert job.finish_time == job.start_time + job.service_seconds
            previous_finish = job.finish_time
        assert busy_arrivals > 10

        arrivals = np.array([job.arrival_time for job in jobs])
        service = np.array([job.service_seconds for job in jobs])
        waits = np.array([job.start_time - job.arrival_time for job in jobs])
        x = np.concatenate([[0.0], np.cumsum(service[:-1] - np.diff(arrivals))])
        closed_form = x - np.minimum.accumulate(x)
        np.testing.assert_allclose(closed_form, waits, rtol=1e-12, atol=1e-12 * arrivals[-1])


@pytest.mark.parametrize("policy", sorted(POLICY_REGISTRY))
def test_busy_seconds_balance_the_completed_service(policy):
    devices = ("Belem", "Bogota")
    scheduler = _fleet(
        policy, devices, seed=4, tenants=80, rate=2.0,
        downtime_seconds=300.0, max_queue_length=6,
    )
    finished = spy_completions(scheduler)
    cut = scheduler.submit("Bogota", arrival=0.0, duration=900.0)
    # Opens while ``cut`` is in service: the job restarts after the window.
    scheduler.inject_outage("Bogota", start=400.0, duration=600.0)
    scheduler.run_until_time(4 * HOUR)

    assert cut.start_time >= 1000.0 and cut in finished["Bogota"]
    assert sum(queue.jobs_rejected for queue in scheduler.queues.values()) > 0
    for name, queue in scheduler.queues.items():
        jobs = finished[name]
        assert len(jobs) > 20
        assert queue.busy_seconds == ordered_sum(job.service_seconds for job in jobs)
