"""Tests for fault injection in the provider's submit loop, on both clocks.

The retry / exhaustion / deadline / outage cases run once per clock: the
closed-form statistical queue and a FIFO event kernel without tenants.  Every
typed exit is checked for the same contract (``submit_expecting``).
"""

import copy

import pytest

from _reference.completions import spy_completions
from repro.circuit import ghz_state
from repro.cloud.job import JobStatus
from repro.cloud.provider import CloudProvider
from repro.devices.catalog import build_qpu
from repro.faults import (
    DeviceOutageError,
    FaultInjector,
    FaultPlan,
    JobDeadlineExceeded,
    JobRetriesExhausted,
    OutageWindow,
    RetryPolicy,
)
from repro.sched import CloudScheduler
from repro.transpiler import transpile


@pytest.fixture()
def belem_job_inputs():
    qpu = build_qpu("Belem")
    circuit = ghz_state(4)
    footprint = transpile(circuit, qpu.topology).footprint
    return circuit, footprint


@pytest.fixture(params=["statistical", "kernel"])
def clock(request):
    return request.param


def make_provider(plan=None, retry_policy=None, seed=1, clock="statistical"):
    injector = FaultInjector(plan, seed=seed) if plan is not None else None
    scheduler = CloudScheduler(policy="fifo", seed=seed) if clock == "kernel" else None
    provider = CloudProvider(
        [build_qpu("Belem"), build_qpu("Bogota")],
        seed=seed,
        shots=256,
        scheduler=scheduler,
        fault_injector=injector,
        retry_policy=retry_policy,
    )
    if scheduler is not None and plan is not None:
        scheduler.apply_fault_plan(plan)
    return provider


def submit_one(provider, inputs, now=0.0):
    circuit, footprint = inputs
    return provider.submit("Belem", [circuit, circuit], footprint, now=now)


def submit_expecting(exc_type, provider, inputs, now=0.0, executed=False):
    """Submit a job that must die of ``exc_type``; checks the exit contract.

    For every typed exit: the job is ``FAILED`` with a non-empty ``error``,
    the failure is detected no earlier than the submission, the fault
    counters stay consistent, and the endpoint's stream is untouched by
    attempts that did not execute (the statistical clock draws one queue
    wait per attempt that reaches the queue; the kernel draws nothing).
    """
    endpoint = provider._endpoint("Belem")
    provider.resolve()  # earlier jobs' parked shots are drawn before we look
    expected_rng = copy.deepcopy(endpoint.rng)
    before = dict(provider.fault_counters)
    with pytest.raises(exc_type) as excinfo:
        submit_one(provider, inputs, now=now)
    exc = excinfo.value
    job = exc.job
    assert job.status is JobStatus.FAILED
    assert job.error
    assert job.error in str(exc)
    assert exc.device_name == "Belem"
    assert exc.detect_time >= job.submit_time == now
    counters = provider.fault_counters
    assert counters["job_failures"] == before["job_failures"] + 1
    exhausted = int(isinstance(exc, JobRetriesExhausted))
    assert counters["transient_failures"] - before["transient_failures"] == (
        counters["retries"] - before["retries"] + exhausted
    )
    if not executed:
        if provider.scheduler is None and job.error != "device permanently down":
            queue_draws = counters["transient_failures"] - before["transient_failures"]
            for _ in range(queue_draws):
                endpoint.queue_model.sample_wait(0.0, expected_rng)
        assert endpoint.rng.bit_generator.state == expected_rng.bit_generator.state
        assert not job.results
    return exc


class TestBitExactWhenDisabled:
    def test_disabled_plan_matches_no_plan(self, belem_job_inputs, clock):
        plain = make_provider(clock=clock)
        gated = make_provider(plan=FaultPlan(), clock=clock)
        for now in (0.0, 100.0, 5000.0):
            a = submit_one(plain, belem_job_inputs, now=now)
            b = submit_one(gated, belem_job_inputs, now=now)
            assert a.start_time == b.start_time
            assert a.finish_time == b.finish_time
            assert [dict(r.counts) for r in a.results] == [
                dict(r.counts) for r in b.results
            ]

    def test_recovered_job_still_produces_full_results(self, belem_job_inputs, clock):
        # Rate chosen so the Belem transient stream fails at least once but
        # recovers within the retry budget (verified by the retries counter).
        chaotic = make_provider(
            plan=FaultPlan(seed=5, transient_failure_rate=0.45),
            retry_policy=RetryPolicy(max_attempts=10, jitter_fraction=0.0),
            clock=clock,
        )
        job = submit_one(chaotic, belem_job_inputs)
        counters = chaotic.fault_counters
        assert counters["transient_failures"] == counters["retries"] >= 1
        assert job.attempts == counters["retries"] + 1
        assert job.status.value == "done"
        assert len(job.results) == 2
        assert all(sum(r.counts.values()) == 256 for r in job.results)


class TestTransientFailures:
    def test_retries_exhausted(self, belem_job_inputs, clock):
        provider = make_provider(
            plan=FaultPlan(transient_failure_rate=0.999),
            retry_policy=RetryPolicy(max_attempts=3),
            clock=clock,
        )
        exc = submit_expecting(JobRetriesExhausted, provider, belem_job_inputs)
        assert exc.attempts == exc.job.attempts == 3
        assert exc.detect_time > 0.0
        assert provider.fault_counters["transient_failures"] == 3
        assert provider.fault_counters["retries"] == 2
        assert provider.fault_counters["job_failures"] == 1

    def test_backoff_advances_virtual_time(self, belem_job_inputs, clock):
        policy = RetryPolicy(
            max_attempts=5, base_backoff_seconds=100.0, jitter_fraction=0.0
        )
        provider = make_provider(
            plan=FaultPlan(seed=5, transient_failure_rate=0.45),
            retry_policy=policy,
            clock=clock,
        )
        job = submit_one(provider, belem_job_inputs)
        retries = provider.fault_counters["retries"]
        assert retries >= 1
        # Every retry pushes the eventual start past at least its backoff.
        assert job.start_time >= 100.0 * retries

    def test_deadline_exceeded_during_backoff(self, belem_job_inputs, clock):
        provider = make_provider(
            plan=FaultPlan(transient_failure_rate=0.999),
            retry_policy=RetryPolicy(
                max_attempts=50, base_backoff_seconds=500.0, deadline_seconds=600.0
            ),
            clock=clock,
        )
        exc = submit_expecting(JobDeadlineExceeded, provider, belem_job_inputs)
        assert exc.detect_time == 600.0

    def test_bombed_attempts_hold_the_device_for_zero_seconds(
        self, belem_job_inputs, clock
    ):
        provider = make_provider(
            plan=FaultPlan(transient_failure_rate=0.999),
            retry_policy=RetryPolicy(max_attempts=3),
            clock=clock,
        )
        submit_expecting(JobRetriesExhausted, provider, belem_job_inputs)
        endpoint = provider._endpoint("Belem")
        assert endpoint.record.jobs_completed == 0
        assert endpoint.record.busy_seconds == 0.0
        assert endpoint.free_at == 0.0


class TestOutages:
    def test_transient_outage_defers_start(self, belem_job_inputs, clock):
        window = OutageWindow(device="Belem", start=0.0, duration=10_000.0)
        provider = make_provider(plan=FaultPlan(outages=(window,)), clock=clock)
        job = submit_one(provider, belem_job_inputs)
        assert job.start_time >= 10_000.0
        if clock == "statistical":
            assert provider.fault_counters["outage_deferrals"] == 1
        else:
            # On the kernel the window is a queue event, not a deferral.
            devices = provider.scheduler.metrics()["devices"]
            assert devices["Belem"]["outage_windows"] == 1
        assert job.status.value == "done"

    def test_permanent_outage_kills_device(self, belem_job_inputs, clock):
        provider = make_provider(
            plan=FaultPlan(
                outages=(OutageWindow(device="Belem", start=0.0, permanent=True),)
            ),
            clock=clock,
        )
        exc = submit_expecting(DeviceOutageError, provider, belem_job_inputs)
        assert exc.permanent
        assert "Belem" in provider.dead_devices
        # Subsequent submissions fast-fail without touching the queue model.
        exc = submit_expecting(DeviceOutageError, provider, belem_job_inputs, now=99.0)
        assert exc.permanent and exc.detect_time == 99.0
        assert provider.fault_counters["job_failures"] == 2

    def test_permanent_outage_opening_later_is_detected_at_its_start(
        self, belem_job_inputs, clock
    ):
        window = OutageWindow(device="Belem", start=5_000.0, permanent=True)
        provider = make_provider(plan=FaultPlan(outages=(window,)), clock=clock)
        assert submit_one(provider, belem_job_inputs).status.value == "done"
        exc = submit_expecting(
            DeviceOutageError, provider, belem_job_inputs, now=6_000.0
        )
        assert exc.detect_time == 6_000.0

    def test_other_devices_unaffected(self, belem_job_inputs, clock):
        provider = make_provider(
            plan=FaultPlan(
                outages=(OutageWindow(device="Belem", start=0.0, permanent=True),)
            ),
            clock=clock,
        )
        circuit, _ = belem_job_inputs
        qpu = build_qpu("Bogota")
        footprint = transpile(circuit, qpu.topology).footprint
        job = provider.submit("Bogota", [circuit], footprint, now=0.0)
        assert job.status.value == "done"


class TestResultDelays:
    def test_delay_pushes_finish_not_device_clock(self, belem_job_inputs, clock):
        plan = FaultPlan(result_timeout_rate=0.999, result_delay_seconds=1234.0)
        baseline = submit_one(make_provider(clock=clock), belem_job_inputs)
        provider = make_provider(plan=plan, clock=clock)
        job = submit_one(provider, belem_job_inputs)
        assert job.finish_time == pytest.approx(baseline.finish_time + 1234.0)
        # The hardware freed up when execution ended, not when results landed.
        assert provider._endpoint("Belem").free_at == pytest.approx(
            baseline.finish_time
        )
        assert provider.fault_counters["result_delays"] == 1

    def test_delay_can_blow_results_deadline(self, belem_job_inputs, clock):
        plan = FaultPlan(result_timeout_rate=0.999, result_delay_seconds=50_000.0)
        provider = make_provider(
            plan=plan, retry_policy=RetryPolicy(deadline_seconds=10_000.0), clock=clock
        )
        exc = submit_expecting(
            JobDeadlineExceeded, provider, belem_job_inputs, executed=True
        )
        assert exc.detect_time == 10_000.0
        # The batch still executed: hardware time was spent.
        assert provider._endpoint("Belem").record.jobs_completed == 1
        assert provider._endpoint("Belem").record.busy_seconds > 0.0


class TestCalibrationBlackouts:
    def test_view_time_freezes_inside_window(self):
        plan = FaultPlan(
            calibration_blackouts=(
                OutageWindow(device="Belem", start=100.0, duration=500.0),
            )
        )
        provider = make_provider(plan=plan)
        assert provider.properties_view_time("Belem", 50.0) == 50.0
        assert provider.properties_view_time("Belem", 300.0) == 100.0
        assert provider.properties_view_time("Belem", 700.0) == 700.0
        assert provider.properties_view_time("Bogota", 300.0) == 300.0
        assert provider.fault_counters["calibration_blackouts"] == 1

    def test_view_time_identity_without_faults(self):
        provider = make_provider()
        assert provider.properties_view_time("Belem", 42.5) == 42.5


class TestInjectorWithScheduler:
    """The combination ``CloudProvider.__init__`` used to reject, running."""

    def test_chaos_job_stream_completes_on_the_kernel(self, belem_job_inputs):
        plan = FaultPlan(
            seed=5,
            transient_failure_rate=0.3,
            result_timeout_rate=0.2,
            result_delay_seconds=90.0,
            outages=(OutageWindow(device="Belem", start=40.0, duration=300.0),),
        )

        def run():
            provider = make_provider(
                plan=plan, retry_policy=RetryPolicy(max_attempts=8), clock="kernel"
            )
            finished = spy_completions(provider.scheduler)
            now, trail = 0.0, []
            for _ in range(10):
                job = submit_one(provider, belem_job_inputs, now=now)
                trail.append(
                    (job.start_time, job.finish_time, job.attempts)
                    + tuple(tuple(r.counts.items()) for r in job.results)
                )
                now = job.finish_time
            return provider, trail, finished

        provider, trail, finished = run()
        counters = provider.fault_counters
        assert counters["retries"] == counters["transient_failures"] >= 1
        assert counters["result_delays"] >= 1
        assert counters["job_failures"] == 0
        # The outage preempted or held a job: nothing started inside it.
        assert not any(40.0 <= start < 340.0 for start, *_ in trail)
        queue = provider.scheduler.queues["Belem"]
        assert len(queue.outage_windows) == 1
        assert queue.in_service is None and not queue.waiting
        # Failed attempts pass through the queue with zero service time.
        assert len(finished["Belem"]) == 10 + counters["retries"]
        assert provider._endpoint("Belem").record.jobs_completed == 10
        # Same (plan, seed): the same chaos, bit for bit.
        assert run()[1] == trail

    def test_preempted_service_restarts_and_draws_afresh(self, belem_job_inputs):
        baseline = submit_one(make_provider(clock="kernel"), belem_job_inputs)
        cut = 0.5 * (baseline.start_time + baseline.finish_time)
        window = OutageWindow(device="Belem", start=cut, duration=500.0)
        provider = make_provider(plan=FaultPlan(outages=(window,)), clock="kernel")
        job = submit_one(provider, belem_job_inputs)
        # Cut mid-run, requeued at the head, restarted from scratch at window
        # end: one attempt, one full set of results, only the rerun booked.
        assert job.start_time == cut + 500.0
        assert job.attempts == 1
        assert len(job.results) == 2
        record = provider._endpoint("Belem").record
        assert record.jobs_completed == 1
        assert job.finish_time == job.start_time + record.busy_seconds
        # Both runs sampled their shots: the endpoint stream moved twice as
        # far as in the uncut job.
        fresh = make_provider(clock="kernel")
        submit_one(fresh, belem_job_inputs)
        submit_one(fresh, belem_job_inputs, now=cut + 500.0)
        fresh.resolve()
        assert (
            provider._endpoint("Belem").rng.bit_generator.state
            == fresh._endpoint("Belem").rng.bit_generator.state
        )
