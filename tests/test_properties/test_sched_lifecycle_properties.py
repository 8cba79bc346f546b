"""Stated invariants of the tenant-job lifecycle, checked at every stop.

A random scheduler run (any registered policy, any seed, tenant load, queue
cap and outage plan; ``run_until_time`` and ``run_until_complete`` calls
interleaved with withdrawing a waiting foreground job) must conserve jobs,
keep time monotone, keep every service start outside the windows in which
the device was down, keep each queue's id and waits columns equal to its
completed jobs' ids and waits (the jobs are read through the completion spy
of ``tests/_reference``), and keep the kernel's live-event count equal to what is
actually on its heap.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from _reference.completions import spy_completions
from repro.cloud.queueing import queue_model_for
from repro.devices.catalog import TABLE_I
from repro.devices.qpu import QPU
from repro.reduction import ordered_sum
from repro.sched import POLICY_REGISTRY, CloudScheduler, WorkloadGenerator
from repro.sched.kernel import Event

DEVICES = ("Belem", "x2", "Bogota")
#: Only this device may go down for good; ``run_until_complete`` withdraws a
#: job stranded on it.
MORTAL = 0

outage_plans = st.lists(
    st.tuples(
        st.integers(0, len(DEVICES) - 1),
        st.floats(0.0, 5000.0),
        st.floats(1.0, 2000.0),
        st.booleans(),  # permanent (honoured on the MORTAL device only)
    ),
    max_size=3,
)
action_lists = st.lists(
    st.one_of(
        st.tuples(st.just("advance"), st.floats(0.0, 2400.0)),
        st.tuples(st.just("submit"), st.integers(0, len(DEVICES) - 1)),
        st.tuples(st.just("complete"), st.integers(0, 7)),
        st.tuples(st.just("withdraw"), st.integers(0, 7)),
    ),
    min_size=1,
    max_size=10,
)


class Harness:
    """A small fleet whose queues count what is offered to and taken from them."""

    def __init__(self, policy, seed, tenants, cap, outage_plan):
        workload = WorkloadGenerator(tenants, jobs_per_tenant_hour=2.0)
        self.scheduler = CloudScheduler(
            policy=policy,
            workload=workload,
            seed=seed,
            downtime_seconds=300.0,
            max_queue_length=cap,
        )
        self.offered = dict.fromkeys(DEVICES, 0)
        self.withdrawn = dict.fromkeys(DEVICES, 0)
        for name in DEVICES:
            # An hourly calibration puts physics-driven downtime windows
            # inside the simulated span, beside the injected outages.
            spec = dataclasses.replace(TABLE_I[name], calibration_period_hours=1.0)
            queue = self.scheduler.register_device(QPU(spec), queue_model_for(name))
            self._count(queue)
        for index, start, duration, permanent in outage_plan:
            self.scheduler.inject_outage(
                DEVICES[index],
                start=start,
                duration=duration,
                permanent=permanent and index == MORTAL,
            )
        self.finished = spy_completions(self.scheduler)
        self.handles = []
        self.gone = set()  # handles withdrawn: they will never complete
        self.last_now = 0.0

    def _count(self, queue):
        on_arrival, withdraw = queue.on_arrival, queue.withdraw

        def counted_arrival(job, now):
            self.offered[queue.name] += 1
            on_arrival(job, now)

        def counted_withdraw(job):
            before = len(queue.waiting)
            withdraw(job)
            self.withdrawn[queue.name] += before - len(queue.waiting)

        queue.on_arrival, queue.withdraw = counted_arrival, counted_withdraw

    # ------------------------------------------------------------------
    def apply(self, action, argument):
        scheduler = self.scheduler
        if action == "advance":
            scheduler.run_until_time(scheduler.now + argument)
            return
        if action == "submit":
            self.handles.append(
                scheduler.submit(
                    device_name=DEVICES[argument], arrival=scheduler.now, duration=45.0
                )
            )
            return
        if not self.handles:
            return
        handle = self.handles[argument % len(self.handles)]
        if handle.done or handle in self.gone:
            return
        if action == "complete":
            scheduler.run_until_complete(handle)
            if not handle.done:  # stranded on the dead device and withdrawn
                assert handle.device_name == DEVICES[MORTAL]
                self.gone.add(handle)
        else:
            scheduler.run_until_time(scheduler.now)  # deliver arrivals due now
            queue = scheduler.queues[handle.device_name]
            if handle in queue.waiting:
                queue.withdraw(handle)
                self.gone.add(handle)

    # ------------------------------------------------------------------
    def check(self):
        scheduler = self.scheduler
        kernel = scheduler.kernel
        assert scheduler.now >= self.last_now
        self.last_now = scheduler.now

        live = 0
        for entry in kernel._heap:
            payload = entry[4]
            if isinstance(payload, Event):
                live += not payload.cancelled
            else:
                live += payload.remaining
        assert kernel.pending == live

        for name, queue in scheduler.queues.items():
            running = queue.in_service
            completed = self.finished[name]
            assert self.offered[name] == (
                len(completed)
                + queue.jobs_rejected
                + len(queue.waiting)
                + (running is not None)
                + self.withdrawn[name]
            )
            assert queue.busy_seconds == ordered_sum(j.service_seconds for j in completed)
            # Recorded once, at completion: a preempted job's restart counts.
            assert queue.waits.tolist() == [j.wait_seconds for j in completed]
            assert queue.completed_ids.tolist() == [j.job_id for j in completed]
            windows = queue.downtime_windows + queue.outage_windows
            previous_finish = 0.0
            for job in completed + ([running] if running is not None else []):
                assert job.arrival_time <= job.start_time
                assert not any(w.start <= job.start_time < w.end for w in windows)
                # Capacity one: services on a device never overlap.
                assert job.start_time >= previous_finish
                if job is not running:
                    assert job.finish_time == job.start_time + job.service_seconds
                    previous_finish = job.finish_time
            assert all(job.start_time is None for job in queue.waiting)


@given(
    policy=st.sampled_from(sorted(POLICY_REGISTRY)),
    seed=st.integers(0, 2**31 - 1),
    tenants=st.integers(0, 400),
    cap=st.one_of(st.none(), st.integers(1, 8)),
    outage_plan=outage_plans,
    actions=action_lists,
)
@settings(max_examples=60, deadline=None)
def test_lifecycle_invariants_hold_at_every_stop(
    policy, seed, tenants, cap, outage_plan, actions
):
    harness = Harness(policy, seed, tenants, cap, outage_plan)
    harness.apply("submit", 0)  # arms calibration and tenant traffic
    harness.check()
    for action, argument in actions:
        harness.apply(action, argument)
        harness.check()
