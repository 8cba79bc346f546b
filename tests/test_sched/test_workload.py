"""Tests for the synthetic background tenant workload generator."""

import numpy as np
import pytest

from repro.cloud.queueing import QueueModel, queue_model_for
from repro.devices.catalog import build_qpu
from repro.sched import CloudScheduler, EventKernel, WorkloadGenerator


def scheduler_with_traffic(num_tenants, devices=("Belem",), seed=0, **workload_kwargs):
    workload = WorkloadGenerator(num_tenants=num_tenants, **workload_kwargs)
    scheduler = CloudScheduler(
        policy="fifo", workload=workload, seed=seed, downtime_seconds=0.0
    )
    for name in devices:
        scheduler.register_device(build_qpu(name), queue_model_for(name))
    return scheduler, workload


def record_arrivals(horizon, num_tenants=100, devices=("Belem", "Bogota"), **kwargs):
    """Every injected arrival as (device, time, tenant, circuits, priority)."""
    scheduler, _ = scheduler_with_traffic(num_tenants, devices=devices, **kwargs)
    records = []
    for name, queue in scheduler.queues.items():
        original = queue.on_arrival

        def recorder(job, now, name=name, original=original):
            records.append(
                (name, job.arrival_time, job.tenant, job.num_circuits, job.priority)
            )
            original(job, now)

        queue.on_arrival = recorder
    scheduler.run_until_time(horizon)
    return records


class TestValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            WorkloadGenerator(num_tenants=-1)
        with pytest.raises(ValueError):
            WorkloadGenerator(num_tenants=1, jobs_per_tenant_hour=0.0)
        with pytest.raises(ValueError):
            WorkloadGenerator(num_tenants=1, circuit_range=(0, 4))
        with pytest.raises(ValueError):
            WorkloadGenerator(num_tenants=1, circuit_range=(5, 4))
        with pytest.raises(ValueError):
            WorkloadGenerator(num_tenants=1, chunk_refresh_seconds=0.0)
        with pytest.raises(ValueError):
            WorkloadGenerator(num_tenants=1, max_chunk=0)


class TestChunkRngProtocol:
    """The chunk generator's draws, pinned.

    A chunk enters the kernel as one ``schedule_batch`` run; that a run fires
    like its timestamps scheduled one at a time is pinned by
    ``test_kernel.py::test_batched_and_sequential_admission_fire_identically``.
    """

    def test_golden_pin_of_the_chunk_rng_protocol(self):
        """Hex-pinned first arrivals for seed 0 — moves only if the chunked
        RNG protocol (stream labels, draw order, cumsum accumulation) moves.
        """
        records = record_arrivals(3600.0, devices=("Belem",))
        head = [(t.hex(), tenant, circuits) for _, t, tenant, circuits, _ in records[:4]]
        assert head == [
            ("0x1.f8b63a6437aa5p+7", "tenant42", 6),
            ("0x1.f142911cc0f84p+8", "tenant57", 8),
            ("0x1.40a808f14ab05p+9", "tenant23", 8),
            ("0x1.4f1163ae5da98p+9", "tenant79", 4),
        ]

    def test_vectorized_draws_match_scalar_reference(self):
        """The RNG contract the chunk protocol leans on: one ``size=K`` array
        call consumes the bit stream exactly like K scalar draws, and
        ``cumsum`` accumulates exactly like a sequential running sum."""
        workload = WorkloadGenerator(num_tenants=100)
        rate = workload.arrival_rate(queue_model_for("Belem"), 0.0)
        size = 64

        vec_rng = EventKernel(seed=0).rng_stream("workload/Belem")
        times_vec = 0.0 + np.cumsum(vec_rng.standard_exponential(size) / rate)

        scalar_rng = EventKernel(seed=0).rng_stream("workload/Belem")
        running = 0.0
        times_scalar = []
        for _ in range(size):
            running += float(scalar_rng.standard_exponential()) / rate
            times_scalar.append(0.0 + running)
        assert times_vec.tolist() == times_scalar

        vec_marks = EventKernel(seed=0).rng_stream("workload/Belem/marks")
        tenants_vec = vec_marks.integers(100, size=size).tolist()
        scalar_marks = EventKernel(seed=0).rng_stream("workload/Belem/marks")
        tenants_scalar = [int(scalar_marks.integers(100)) for _ in range(size)]
        assert tenants_vec == tenants_scalar

    def test_draw_over_a_range_of_one_consumes_no_bits(self):
        """What licenses skipping the priority draw when ``max_priority == 0``:
        ``integers(1, size=K)`` returns zeros and leaves the stream where it
        was, so the next chunk's marks cannot tell whether it was made."""
        marks = EventKernel(seed=0).rng_stream("workload/Belem/marks")
        marks.integers(100, size=7)  # leave an odd number of 32-bit halves buffered
        before = marks.bit_generator.state
        drawn = marks.integers(1, size=4096)  # max_priority + 1 == 1
        assert not drawn.any()
        assert marks.bit_generator.state == before


class TestSpreadLoad:
    def test_spread_load_dilutes_per_device_traffic(self):
        """With spread_load, a fixed community divides across the fleet, so
        one device of a two-device fleet sees less traffic than a lone one."""

        def belem_arrivals(devices):
            scheduler, workload = scheduler_with_traffic(
                num_tenants=400, devices=devices, spread_load=True
            )
            scheduler.run_until_time(4 * 3600.0)
            return sum(
                1 for job in scheduler.queues["Belem"].completed
            ) + scheduler.queues["Belem"].queue_length

        alone = belem_arrivals(("Belem",))
        shared = belem_arrivals(("Belem", "Bogota", "Casablanca", "Lagos"))
        assert shared < alone


class TestArrivalRate:
    def test_scales_with_popularity_and_diurnal_curve(self):
        workload = WorkloadGenerator(num_tenants=100)
        quiet = QueueModel(popularity=0.1, diurnal_amplitude=0.0)
        busy = QueueModel(popularity=0.9, diurnal_amplitude=0.0)
        assert workload.arrival_rate(busy, 0.0) > workload.arrival_rate(quiet, 0.0)
        swing = QueueModel(popularity=0.5, diurnal_amplitude=0.5)
        rates = [workload.arrival_rate(swing, h * 3600.0) for h in range(24)]
        assert max(rates) > min(rates)

    def test_zero_tenants_means_zero_rate(self):
        workload = WorkloadGenerator(num_tenants=0)
        assert workload.arrival_rate(queue_model_for("Belem"), 0.0) == 0.0


class TestInjection:
    def test_traffic_reaches_the_queue(self):
        scheduler, workload = scheduler_with_traffic(num_tenants=200)
        scheduler.run_until_time(4 * 3600.0)
        assert workload.jobs_injected > 0
        queue = scheduler.queues["Belem"]
        assert len(queue.completed) > 0
        assert all(job.tenant.startswith("tenant") for job in queue.completed)

    def test_zero_tenants_inject_nothing(self):
        scheduler, workload = scheduler_with_traffic(num_tenants=0)
        scheduler.run_until_time(4 * 3600.0)
        assert workload.jobs_injected == 0
        assert scheduler.queues["Belem"].completed == []

    def test_deterministic_under_fixed_seed(self):
        def trace(seed):
            scheduler, _ = scheduler_with_traffic(num_tenants=150, seed=seed)
            scheduler.run_until_time(2 * 3600.0)
            return [
                (job.tenant, job.arrival_time, job.start_time, job.finish_time)
                for job in scheduler.queues["Belem"].completed
            ]

        first = trace(seed=9)
        assert first == trace(seed=9)
        assert first != trace(seed=10)

    def test_per_device_streams_are_independent_of_fleet(self):
        """Belem's traffic is identical whether or not Bogota is registered."""

        def belem_arrivals(devices):
            scheduler, _ = scheduler_with_traffic(num_tenants=100, devices=devices)
            scheduler.run_until_time(2 * 3600.0)
            return [job.arrival_time for job in scheduler.queues["Belem"].completed]

        assert belem_arrivals(("Belem",)) == belem_arrivals(("Belem", "Bogota"))

    def test_more_tenants_more_traffic(self):
        light_sched, _ = scheduler_with_traffic(num_tenants=50)
        heavy_sched, _ = scheduler_with_traffic(num_tenants=500)
        light_sched.run_until_time(3 * 3600.0)
        heavy_sched.run_until_time(3 * 3600.0)
        light = len(light_sched.queues["Belem"].completed)
        heavy = len(heavy_sched.queues["Belem"].completed)
        assert heavy > light

    def test_tenant_report_aggregates_latency(self):
        scheduler, _ = scheduler_with_traffic(num_tenants=5)
        scheduler.run_until_time(24 * 3600.0)
        report = scheduler.tenant_report()
        assert report
        for stats in report.values():
            assert stats["jobs_completed"] >= 1
            assert stats["mean_wait_seconds"] >= 0.0
            assert stats["mean_turnaround_seconds"] > 0.0
