"""Tests for the cloud provider's queueing and execution behaviour."""

import copy

import numpy as np
import pytest

from repro.backends import NoisyBackend
from repro.circuit import ghz_state
from repro.cloud.provider import CloudProvider
from repro.cloud.queueing import QueueModel
from repro.devices.catalog import build_qpu
from repro.sched import CloudScheduler
from repro.transpiler import transpile


@pytest.fixture()
def provider():
    return CloudProvider([build_qpu("Belem"), build_qpu("Bogota")], seed=1, shots=256)


@pytest.fixture()
def belem_job_inputs():
    qpu = build_qpu("Belem")
    circuit = ghz_state(4)
    footprint = transpile(circuit, qpu.topology).footprint
    return circuit, footprint


class TestProviderConstruction:
    def test_requires_devices(self):
        with pytest.raises(ValueError):
            CloudProvider([])

    def test_duplicate_devices_rejected(self):
        with pytest.raises(ValueError):
            CloudProvider([build_qpu("Belem"), build_qpu("Belem")])

    def test_device_names(self, provider):
        assert provider.device_names == ("Belem", "Bogota")

    def test_qpu_lookup(self, provider):
        assert provider.qpu("Bogota").name == "Bogota"
        with pytest.raises(KeyError):
            provider.qpu("nope")

    def test_every_endpoint_runs_its_own_device(self, provider):
        for name in provider.device_names:
            backend = provider._endpoint(name).backend
            assert type(backend) is NoisyBackend
            assert backend.qpu is provider.qpu(name)


class TestSubmission:
    def test_job_lifecycle(self, provider, belem_job_inputs):
        circuit, footprint = belem_job_inputs
        job = provider.submit("Belem", [circuit, circuit], footprint, now=0.0)
        assert job.status.value == "done"
        assert len(job.results) == 2
        assert job.finish_time > job.start_time >= job.submit_time
        assert job.results[0].counts.shots == 256

    def test_empty_job_rejected(self, provider, belem_job_inputs):
        _, footprint = belem_job_inputs
        with pytest.raises(ValueError):
            provider.submit("Belem", [], footprint, now=0.0)

    def test_serial_queue_orders_jobs(self, provider, belem_job_inputs):
        circuit, footprint = belem_job_inputs
        first = provider.submit("Belem", [circuit], footprint, now=0.0)
        second = provider.submit("Belem", [circuit], footprint, now=0.0)
        assert second.start_time >= first.finish_time

    def test_devices_queue_independently(self, provider, belem_job_inputs):
        circuit, _ = belem_job_inputs
        belem_fp = transpile(circuit, build_qpu("Belem").topology).footprint
        bogota_fp = transpile(circuit, build_qpu("Bogota").topology).footprint
        a = provider.submit("Belem", [circuit], belem_fp, now=0.0)
        b = provider.submit("Bogota", [circuit], bogota_fp, now=0.0)
        # Bogota's start is not pushed behind Belem's job
        assert b.start_time < a.finish_time + provider.qpu("Bogota").spec.base_job_seconds * 10

    def test_a_job_holds_the_device_for_its_clock(self, provider, belem_job_inputs):
        """A job starts at the closed-form queue wait and occupies the device
        for half a job slot a circuit, each at the duration of its own start."""
        circuit, footprint = belem_job_inputs
        endpoint = copy.deepcopy(provider._endpoint("Belem"))
        start = max(
            7000.0 + endpoint.queue_model.sample_wait(7000.0, endpoint.rng), endpoint.free_at
        )
        starts, durations, elapsed, _ = provider.qpu("Belem")._walk_clock(3, start)
        job = provider.submit("Belem", [circuit] * 3, footprint, now=7000.0)
        assert job.start_time == start == starts[0]
        assert job.finish_time == start + elapsed
        assert [r.duration_seconds for r in job.results] == durations
        report = provider.utilization_report()["Belem"]
        assert report["busy_seconds"] == elapsed

    def test_custom_shots(self, provider, belem_job_inputs):
        circuit, footprint = belem_job_inputs
        job = provider.submit("Belem", [circuit], footprint, now=0.0, shots=64)
        assert job.results[0].counts.shots == 64

    def test_queue_wait_reflected_in_job(self, belem_job_inputs):
        circuit, footprint = belem_job_inputs
        slow_queue = {"Belem": QueueModel(mean_wait_seconds=500.0, sigma=0.1, popularity=0.9)}
        provider = CloudProvider([build_qpu("Belem")], queue_models=slow_queue, seed=0)
        job = provider.submit("Belem", [circuit], footprint, now=0.0)
        assert job.queue_seconds > 100.0

    def test_unknown_device_rejected(self, provider, belem_job_inputs):
        circuit, footprint = belem_job_inputs
        with pytest.raises(KeyError):
            provider.submit("Quito", [circuit], footprint, now=0.0)


class TestArgumentValidation:
    """Bad ``shots``/``now`` are rejected before any state moves.

    Regression: on a scheduler-backed provider they used to raise from inside
    the kernel's service-start event, leaving the device queue ``in_service``
    with no completion event (the next submit never returned); on the
    statistical clock a NaN ``now`` burned a job id and a queue-wait draw.
    """

    @pytest.mark.parametrize("clock", ["statistical", "kernel"])
    @pytest.mark.parametrize(
        "bad",
        [
            {"shots": 0},
            {"shots": -4},
            {"now": float("nan")},
            {"now": float("inf")},
            {"now": -5.0},
        ],
        ids=["shots=0", "shots<0", "now=nan", "now=inf", "now<0"],
    )
    def test_rejected_call_leaves_no_trace(self, clock, bad, belem_job_inputs):
        scheduler = CloudScheduler(policy="fifo", seed=1) if clock == "kernel" else None
        provider = CloudProvider(
            [build_qpu("Belem"), build_qpu("Bogota")],
            seed=1,
            shots=256,
            scheduler=scheduler,
        )
        circuit, footprint = belem_job_inputs
        provider.submit("Belem", [circuit], footprint, now=0.0)
        endpoint = provider._endpoint("Belem")

        def state():
            kernel_state = None
            if scheduler is not None:
                queue = scheduler.queues["Belem"]
                kernel_state = (scheduler.kernel.pending, queue.in_service, list(queue.waiting))
            return (
                provider._next_job_id,
                endpoint.rng.bit_generator.state,
                dict(provider.fault_counters),
                kernel_state,
            )

        before = state()
        (argument,) = bad
        with pytest.raises(ValueError, match=argument):
            provider.submit("Belem", [circuit], footprint, **{"now": 50.0, **bad})
        assert state() == before
        follow_up = provider.submit("Belem", [circuit], footprint, now=50.0)
        assert follow_up.status.value == "done"
        assert follow_up.job_id == before[0]


class TestUtilization:
    def test_report_tracks_jobs(self, provider, belem_job_inputs):
        circuit, footprint = belem_job_inputs
        for _ in range(3):
            provider.submit("Belem", [circuit], footprint, now=0.0)
        report = provider.utilization_report()
        assert report["Belem"]["jobs_completed"] == 3.0
        assert report["Belem"]["busy_seconds"] > 0
        assert report["Bogota"]["jobs_completed"] == 0.0

    def test_utilization_fraction_bounded(self, provider, belem_job_inputs):
        circuit, footprint = belem_job_inputs
        provider.submit("Belem", [circuit], footprint, now=0.0)
        report = provider.utilization_report(horizon_seconds=1e9)
        assert 0.0 <= report["Belem"]["utilization"] <= 1.0

    def test_imbalance_is_visible(self, provider, belem_job_inputs):
        """Submitting everything to one device shows the utilization imbalance
        the paper motivates EQC with."""
        circuit, footprint = belem_job_inputs
        for _ in range(5):
            provider.submit("Belem", [circuit], footprint, now=0.0)
        report = provider.utilization_report()
        assert report["Belem"]["busy_seconds"] > report["Bogota"]["busy_seconds"]
