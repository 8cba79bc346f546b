"""Tests for injected outages on the discrete-event scheduler path."""

import pytest

from repro.cloud.queueing import queue_model_for
from repro.devices.catalog import build_qpu
from repro.faults import FaultPlan, OutageWindow
from repro.sched import CloudScheduler


def make_scheduler(device="Belem", **kwargs):
    kwargs.setdefault("downtime_seconds", 0.0)
    scheduler = CloudScheduler(policy="fifo", **kwargs)
    scheduler.register_device(build_qpu(device), queue_model_for(device))
    return scheduler


class TestOutageWindows:
    def test_job_arriving_exactly_at_outage_start_waits(self):
        """Downtime events outrank arrivals at the same timestamp, so a job
        landing exactly when the window opens must wait out the outage."""
        scheduler = make_scheduler()
        scheduler.inject_outage("Belem", start=100.0, duration=50.0)
        job = scheduler.submit(device_name="Belem", arrival=100.0, duration=10.0)
        scheduler.run_until_complete(job)
        assert job.start_time == pytest.approx(150.0)
        assert job.finish_time == pytest.approx(160.0)

    def test_non_finite_outage_start_or_arrival_rejected(self):
        """Both reach ``EventKernel.schedule``, which refuses a NaN heap key."""
        scheduler = make_scheduler()
        for start in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                scheduler.inject_outage("Belem", start=start, duration=50.0)
        with pytest.raises(ValueError, match="finite"):
            scheduler.submit(device_name="Belem", arrival=float("nan"), duration=1.0)
        assert scheduler.kernel.pending == 0

    def test_job_before_outage_unaffected(self):
        scheduler = make_scheduler()
        scheduler.inject_outage("Belem", start=100.0, duration=50.0)
        job = scheduler.submit(device_name="Belem", arrival=0.0, duration=10.0)
        scheduler.run_until_complete(job)
        assert job.start_time == pytest.approx(0.0)
        assert job.finish_time == pytest.approx(10.0)

    def test_in_service_job_preempted_and_requeued_at_head(self):
        scheduler = make_scheduler()
        scheduler.inject_outage("Belem", start=50.0, duration=100.0)
        first = scheduler.submit(device_name="Belem", arrival=0.0, duration=80.0)
        second = scheduler.submit(device_name="Belem", arrival=10.0, duration=20.0)
        scheduler.run_until_complete(second)
        # The preempted job restarts from scratch at window end, *before* the
        # job that was merely waiting.
        assert first.start_time == pytest.approx(150.0)
        assert first.finish_time == pytest.approx(230.0)
        assert second.start_time == pytest.approx(230.0)
        assert second.finish_time == pytest.approx(250.0)

    def test_preempted_service_is_not_double_counted(self):
        scheduler = make_scheduler()
        scheduler.inject_outage("Belem", start=50.0, duration=100.0)
        job = scheduler.submit(device_name="Belem", arrival=0.0, duration=80.0)
        scheduler.run_until_complete(job)
        assert job.service_seconds == pytest.approx(80.0)

    def test_outage_overlapping_calibration_window_extends_downtime(self):
        # The injected outage opens inside the first calibration window and
        # outlasts it, so the device stays down until the *outage* end.
        from repro.cloud.clock import SECONDS_PER_HOUR

        scheduler = make_scheduler(downtime_seconds=600.0)
        queue = scheduler.queues["Belem"]
        period = queue.qpu.spec.calibration_period_hours * SECONDS_PER_HOUR
        outage_start = period + 60.0
        outage_end = outage_start + 50_000.0
        scheduler.inject_outage("Belem", outage_start, duration=50_000.0)
        job = scheduler.submit(
            device_name="Belem", arrival=period + 30.0, duration=10.0
        )
        scheduler.run_until_complete(job)
        assert queue.downtime_windows[0].start == pytest.approx(period)
        assert queue.outage_windows[0].start == pytest.approx(outage_start)
        # Calibration alone would have released the device much earlier.
        calibration_end = period + queue.downtime_windows[0].duration
        assert outage_end > calibration_end
        assert job.start_time == pytest.approx(outage_end)

    def test_permanent_outage_blocks_forever_without_spinning(self):
        scheduler = make_scheduler()
        scheduler.inject_outage("Belem", start=0.0, permanent=True)
        job = scheduler.submit(device_name="Belem", arrival=10.0, duration=5.0)
        # The kernel must drain (no infinite wakeups) with the job unstarted.
        scheduler.run_until_time(1e9)
        assert not job.done
        assert job.start_time is None
        assert scheduler.queues["Belem"].downtime_until == float("inf")

    def test_run_until_complete_gives_up_on_a_dead_device(self):
        # Calibration cycles keep the heap alive forever: without the early
        # stop this would spin to run_until's max_events.
        scheduler = make_scheduler(downtime_seconds=600.0)
        queue = scheduler.queues["Belem"]
        scheduler.inject_outage("Belem", start=50.0, permanent=True)
        running = scheduler.submit(device_name="Belem", arrival=0.0, duration=80.0)
        late = scheduler.submit(device_name="Belem", arrival=70.0, duration=5.0)
        assert queue.dead_since is None
        # Cut at t=50, requeued at the head, then withdrawn.
        assert scheduler.run_until_complete(running) is running
        assert not running.done and running.start_time is None
        assert scheduler.now == 50.0
        assert queue.dead_since == 50.0
        assert queue.in_service is None and queue.waiting == []
        # Already down: the pending arrival is cancelled, no event runs.
        events, pending = scheduler.kernel.events_processed, scheduler.kernel.pending
        scheduler.run_until_complete(late)
        assert not late.done
        assert scheduler.kernel.events_processed == events
        assert scheduler.kernel.pending == pending - 1
        scheduler.run_until_time(1000.0)
        assert queue.waiting == [] and late.start_time is None

    def test_validation(self):
        scheduler = make_scheduler()
        with pytest.raises(KeyError):
            scheduler.inject_outage("nope", start=0.0)
        with pytest.raises(ValueError):
            scheduler.inject_outage("Belem", start=-1.0)
        with pytest.raises(ValueError):
            scheduler.inject_outage("Belem", start=0.0, duration=0.0)


class TestFaultPlanIntegration:
    def test_apply_fault_plan_arms_all_outages(self):
        scheduler = CloudScheduler(policy="fifo", downtime_seconds=0.0)
        for device in ("Belem", "Bogota"):
            scheduler.register_device(build_qpu(device), queue_model_for(device))
        plan = FaultPlan(
            outages=(
                OutageWindow(device="Belem", start=50.0, duration=100.0),
                OutageWindow(device="Bogota", start=0.0, duration=25.0),
            )
        )
        scheduler.apply_fault_plan(plan)
        belem = scheduler.submit(device_name="Belem", arrival=60.0, duration=10.0)
        bogota = scheduler.submit(device_name="Bogota", arrival=0.0, duration=10.0)
        scheduler.run_until_complete(belem)
        scheduler.run_until_complete(bogota)
        assert belem.start_time == pytest.approx(150.0)
        assert bogota.start_time == pytest.approx(25.0)

    def test_metrics_report_outage_windows(self):
        scheduler = make_scheduler()
        scheduler.inject_outage("Belem", start=5.0, duration=10.0)
        job = scheduler.submit(device_name="Belem", arrival=20.0, duration=1.0)
        scheduler.run_until_complete(job)
        assert scheduler.metrics()["devices"]["Belem"]["outage_windows"] == 1
