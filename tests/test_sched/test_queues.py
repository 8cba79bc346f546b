"""Tests for device service queues: capacity-1 service and downtime windows."""

import numpy as np
import pytest

from _reference.completions import spy_completions
from repro.cloud.clock import SECONDS_PER_HOUR
from repro.cloud.queueing import queue_model_for
from repro.devices.catalog import build_qpu
from repro.sched import POLICY_REGISTRY, CloudScheduler, SchedJob, WorkloadGenerator
from repro.telemetry import percentile


def make_scheduler(device="Belem", policy="fifo", **kwargs):
    kwargs.setdefault("downtime_seconds", 0.0)
    scheduler = CloudScheduler(policy=policy, **kwargs)
    scheduler.register_device(build_qpu(device), queue_model_for(device))
    return scheduler


class TestCapacityOneService:
    def test_serial_jobs_do_not_overlap(self):
        scheduler = make_scheduler()
        first = scheduler.submit(device_name="Belem", arrival=0.0, duration=100.0)
        second = scheduler.submit(device_name="Belem", arrival=10.0, duration=100.0)
        scheduler.run_until_complete(second)
        assert first.start_time == pytest.approx(0.0)
        assert first.finish_time == pytest.approx(100.0)
        assert second.start_time == pytest.approx(100.0)
        assert second.finish_time == pytest.approx(200.0)

    def test_idle_device_starts_immediately(self):
        scheduler = make_scheduler()
        job = scheduler.submit(device_name="Belem", arrival=500.0, duration=30.0)
        scheduler.run_until_complete(job)
        assert job.start_time == pytest.approx(500.0)
        assert job.wait_seconds == pytest.approx(0.0)

    def test_late_replayed_submission_queues_behind_committed_work(self):
        """An arrival behind the device's local timeline cannot rewind it."""
        scheduler = make_scheduler()
        first = scheduler.submit(device_name="Belem", arrival=0.0, duration=100.0)
        scheduler.run_until_complete(first)
        late = scheduler.submit(device_name="Belem", arrival=20.0, duration=10.0)
        scheduler.run_until_complete(late)
        assert late.start_time == pytest.approx(100.0)

    def test_default_service_duration_uses_device_clock(self):
        scheduler = make_scheduler()
        job = scheduler.submit(device_name="Belem", arrival=0.0, num_circuits=4)
        scheduler.run_until_complete(job)
        qpu = scheduler.queues["Belem"].qpu
        expected = qpu.job_duration_seconds(0.0) / 2.0 * 4
        assert job.service_seconds == pytest.approx(expected)

    def test_unknown_device_rejected(self):
        scheduler = make_scheduler()
        with pytest.raises(KeyError):
            scheduler.submit(device_name="nope", arrival=0.0, duration=1.0)


class TestAdmissionControl:
    def test_background_jobs_rejected_at_cap(self):
        scheduler = make_scheduler(max_queue_length=2)
        blocker = scheduler.submit(device_name="Belem", arrival=0.0, duration=1000.0)
        admitted = [
            scheduler.submit(
                device_name="Belem", arrival=1.0, duration=10.0,
                tenant="t", foreground=False,
            )
            for _ in range(4)
        ]
        scheduler.run_until_complete(blocker)
        queue = scheduler.queues["Belem"]
        assert queue.jobs_rejected == 2
        assert sum(job.rejected for job in admitted) == 2

    def test_foreground_jobs_always_admitted(self):
        scheduler = make_scheduler(max_queue_length=1)
        scheduler.submit(device_name="Belem", arrival=0.0, duration=50.0)
        jobs = [
            scheduler.submit(device_name="Belem", arrival=1.0, duration=10.0)
            for _ in range(5)
        ]
        scheduler.run_until_complete(jobs[-1])
        assert scheduler.queues["Belem"].jobs_rejected == 0
        assert all(job.done for job in jobs)

    @pytest.mark.parametrize("name", sorted(POLICY_REGISTRY))
    def test_a_full_queue_rejects_background_before_the_policy_is_asked(self, name):
        policy = POLICY_REGISTRY[name]()
        asked = []
        admit = policy.admit
        policy.admit = lambda job, queue, now: asked.append(job) or admit(job, queue, now)
        scheduler = make_scheduler(policy=policy, max_queue_length=2)
        queue = scheduler.queues["Belem"]

        def arrive(foreground):
            return scheduler.submit(
                device_name="Belem", arrival=1.0, duration=10.0,
                tenant="eqc" if foreground else "t", foreground=foreground,
            )

        blocker = scheduler.submit(device_name="Belem", arrival=0.0, duration=1000.0)
        filling = [arrive(False), arrive(False)]
        bounced = arrive(False)
        probe = arrive(True)
        scheduler.run_until_time(1.0)
        assert queue.in_service is blocker and queue.waiting == [*filling, probe]
        assert bounced.rejected and queue.jobs_rejected == 1
        assert asked == [blocker, *filling, probe]
        scheduler.run_until_complete(probe)
        assert probe.done and not probe.rejected


class TestHandleIdentity:
    def test_withdraw_removes_exactly_the_handle_passed(self):
        """Two jobs with equal fields are still two jobs."""
        scheduler = make_scheduler()
        queue = scheduler.queues["Belem"]
        blocker = scheduler.submit(device_name="Belem", arrival=0.0, duration=100.0)
        scheduler.run_until_time(1.0)
        assert queue.in_service is blocker
        twins = [
            SchedJob(job_id=7, tenant="t", arrival_time=1.0, foreground=True)
            for _ in range(2)
        ]
        for twin in twins:
            queue.on_arrival(twin, 1.0)
        assert twins[0] != twins[1]
        queue.withdraw(twins[1])
        assert len(queue.waiting) == 1 and queue.waiting[0] is twins[0]
        queue.withdraw(twins[1])  # already gone: a no-op, not the other twin
        assert queue.waiting == [twins[0]]

    def test_handle_is_hashable(self):
        scheduler = make_scheduler()
        job = scheduler.submit(device_name="Belem", arrival=0.0, duration=10.0)
        notes = {job: "mine"}
        scheduler.run_until_complete(job)
        assert notes[job] == "mine"

    def test_handle_has_no_instance_dict(self):
        job = SchedJob(job_id=0, tenant="t")
        with pytest.raises(AttributeError):
            job.colour = "red"


class TestCalibrationDowntime:
    def test_downtime_blocks_dispatch_until_window_closes(self):
        """A job arriving inside a calibration window waits for it to close."""
        scheduler = make_scheduler(downtime_seconds=600.0)
        boundary = scheduler.queues["Belem"].qpu.spec.calibration_period_hours * SECONDS_PER_HOUR
        job = scheduler.submit(device_name="Belem", arrival=boundary + 1.0, duration=30.0)
        scheduler.run_until_complete(job)
        queue = scheduler.queues["Belem"]
        assert len(queue.downtime_windows) == 1
        window = queue.downtime_windows[0]
        assert window.start == pytest.approx(boundary)
        # Drift scaling makes the outage at least the base duration.
        assert window.duration >= 600.0
        assert job.start_time == pytest.approx(window.end)
        assert job.wait_seconds >= 599.0

    def test_in_flight_job_is_not_preempted(self):
        scheduler = make_scheduler(downtime_seconds=600.0)
        boundary = scheduler.queues["Belem"].qpu.spec.calibration_period_hours * SECONDS_PER_HOUR
        job = scheduler.submit(
            device_name="Belem", arrival=boundary - 10.0, duration=100.0
        )
        scheduler.run_until_complete(job)
        assert job.start_time == pytest.approx(boundary - 10.0)
        assert job.finish_time == pytest.approx(boundary + 90.0)

    def test_downtime_recurs_every_calibration_period(self):
        scheduler = make_scheduler(downtime_seconds=60.0)
        period = scheduler.queues["Belem"].qpu.spec.calibration_period_hours * SECONDS_PER_HOUR
        scheduler.run_until_time(3.5 * period)
        starts = [w.start for w in scheduler.queues["Belem"].downtime_windows]
        assert starts == pytest.approx([period, 2 * period, 3 * period])

    def test_zero_downtime_schedules_no_windows(self):
        scheduler = make_scheduler(downtime_seconds=0.0)
        period = scheduler.queues["Belem"].qpu.spec.calibration_period_hours * SECONDS_PER_HOUR
        scheduler.run_until_time(2.5 * period)
        assert scheduler.queues["Belem"].downtime_windows == []


class TestSloMetrics:
    def test_wait_percentiles_match_numpy_over_every_finished_job(self):
        """One sort serves p50 and p99, with ``percentile``'s arithmetic."""
        scheduler = CloudScheduler(
            policy="fifo", workload=WorkloadGenerator(300, jobs_per_tenant_hour=3.0), seed=5
        )
        for name in ("Belem", "Bogota"):
            scheduler.register_device(build_qpu(name), queue_model_for(name))
        finished = spy_completions(scheduler)
        scheduler.run_until_time(3 * SECONDS_PER_HOUR)
        waits = [job.wait_seconds for jobs in finished.values() for job in jobs]
        assert len(waits) > 200 and len(set(waits)) > 100
        slo = scheduler.slo_metrics()
        assert slo["jobs_completed"] == len(waits)
        assert slo["queue_wait_mean"] == sum(waits) / len(waits)
        for q in (50, 99):
            assert slo[f"queue_wait_p{q}"] == percentile(waits, q)
            assert slo[f"queue_wait_p{q}"] == pytest.approx(
                float(np.percentile(waits, q, method="linear")), rel=1e-12
            )

    def test_an_idle_fleet_reports_zero_waits(self):
        slo = make_scheduler().slo_metrics()
        assert slo["jobs_completed"] == 0.0
        assert slo["queue_wait_mean"] == slo["queue_wait_p50"] == slo["queue_wait_p99"] == 0.0
