"""Tests for the synthetic background tenant workload generator."""

import numpy as np
import pytest

from repro.cloud.clock import VirtualClock
from repro.cloud.queueing import QueueModel, queue_model_for
from repro.devices.catalog import build_qpu
from repro.sched import CloudScheduler, EventKernel, WorkloadGenerator
from repro.sched import workload as workload_module


def scheduler_with_traffic(
    num_tenants,
    devices=("Belem",),
    seed=0,
    policy="fifo",
    clock=None,
    queue_models=None,
    workload_type=WorkloadGenerator,
    **workload_kwargs,
):
    workload = workload_type(num_tenants=num_tenants, **workload_kwargs)
    scheduler = CloudScheduler(
        policy=policy, workload=workload, seed=seed, clock=clock, downtime_seconds=0.0
    )
    for name in devices:
        model = (queue_models or {}).get(name) or queue_model_for(name)
        scheduler.register_device(build_qpu(name), model)
    return scheduler, workload


def recorded(scheduler):
    """A list that fills with every arrival as (device, time, tenant,
    circuits, priority) while ``scheduler`` runs."""
    records = []
    for name, queue in scheduler.queues.items():
        original = queue.on_arrival

        def recorder(job, now, name=name, original=original):
            records.append(
                (name, job.arrival_time, job.tenant, job.num_circuits, job.priority)
            )
            original(job, now)

        queue.on_arrival = recorder
    return records


def record_arrivals(horizon, num_tenants=100, devices=("Belem", "Bogota"), **kwargs):
    """Every injected arrival as (device, time, tenant, circuits, priority)."""
    scheduler, _ = scheduler_with_traffic(num_tenants, devices=devices, **kwargs)
    records = recorded(scheduler)
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

    @pytest.mark.parametrize("field", ["jobs_per_tenant_hour", "chunk_refresh_seconds"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_rates_by_name(self, field, value):
        """NaN used to fail only at the first chunk (cannot convert NaN to
        integer) and inf with an OverflowError; both are refused up front."""
        with pytest.raises(ValueError, match=field):
            WorkloadGenerator(num_tenants=1, **{field: value})


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

    def test_deterministic_under_fixed_seed(self, forget_arrival_recordings):
        def trace(seed):
            forget_arrival_recordings()  # every run draws its own traffic
            scheduler, _ = scheduler_with_traffic(num_tenants=150, seed=seed)
            scheduler.run_until_time(2 * 3600.0)
            return [
                (job.tenant, job.arrival_time, job.start_time, job.finish_time)
                for job in scheduler.queues["Belem"].completed
            ]

        first = trace(seed=9)
        assert first == trace(seed=9)
        assert first != trace(seed=10)

    def test_per_device_streams_are_independent_of_fleet(self, forget_arrival_recordings):
        """Belem's traffic is identical whether or not Bogota is registered."""

        def belem_arrivals(devices):
            forget_arrival_recordings()  # every run draws its own traffic
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


@pytest.fixture
def stream_labels(monkeypatch):
    """Every ``rng_stream`` label drawn while the test runs."""
    labels = []
    original = EventKernel.rng_stream

    def counting(self, label):
        labels.append(label)
        return original(self, label)

    monkeypatch.setattr(EventKernel, "rng_stream", counting)
    return labels


def hex_records(records):
    return [
        (device, t.hex(), tenant, circuits, priority)
        for device, t, tenant, circuits, priority in records
    ]


class TestArrivalRecording:
    """Schedulers with one seed, device and workload replay one recording."""

    DEVICES = ("Belem", "Bogota", "Lagos")
    HORIZON = 2 * 3600.0

    def arrivals(self, seed, policy="fifo", **kwargs):
        return hex_records(
            record_arrivals(
                self.HORIZON,
                num_tenants=300,
                devices=self.DEVICES,
                seed=seed,
                policy=policy,
                max_priority=3,
                **kwargs,
            )
        )

    def test_a_replay_matches_a_fresh_draw(self, stream_labels):
        """Seed 11 draws, a second seed-11 policy replays, seed 12 evicts,
        and seed 11 then draws afresh: all three seed-11 runs see the same
        arrivals, down to the timestamp bits."""
        streams = 2 * len(self.DEVICES)
        drawn = self.arrivals(11, policy="fifo")
        assert len(stream_labels) == streams
        replayed = self.arrivals(11, policy="deadline")
        assert len(stream_labels) == streams  # no Generator seeded
        other = self.arrivals(12)
        assert len(stream_labels) == 2 * streams
        redrawn = self.arrivals(11, policy="priority")
        assert len(stream_labels) == 3 * streams
        assert drawn and replayed == drawn and redrawn == drawn
        assert other != drawn
        assert {priority for *_, priority in drawn} == {0, 1, 2, 3}

    def test_rng_streams_are_seeded_once_per_seed_not_per_scheduler(
        self, stream_labels
    ):
        for policy in ("fifo", "backpressure", "deadline", "fair_share"):
            scheduler, _ = scheduler_with_traffic(
                300, devices=self.DEVICES, seed=5, policy=policy
            )
            scheduler.run_until_time(self.HORIZON)
        assert sorted(stream_labels) == sorted(
            label
            for name in self.DEVICES
            for label in (f"workload/{name}", f"workload/{name}/marks")
        )

    @pytest.mark.parametrize(
        "change",
        [
            {"seed": 4},
            {"devices": ("Bogota",)},
            {"num_tenants": 201},
            {"jobs_per_tenant_hour": 1.5},
            {"circuit_range": (2, 9)},
            {"max_priority": 2},
            {"chunk_refresh_seconds": 600.0},
            {"max_chunk": 4095},
            {"spread_load": True},
            {"queue_models": {"Belem": QueueModel(popularity=0.3)}},
            {"workload_type": type("Subclass", (WorkloadGenerator,), {})},
            {"clock": VirtualClock(start=60.0)},
        ],
        ids=lambda change: next(iter(change)),
    )
    def test_changing_any_key_field_draws_a_new_recording(
        self, stream_labels, change
    ):
        base = {"num_tenants": 200, "devices": ("Belem",), "seed": 3}
        for _ in range(2):  # the second run replays
            scheduler, _ = scheduler_with_traffic(**base)
            scheduler.run_until_time(600.0)
        assert stream_labels == ["workload/Belem", "workload/Belem/marks"]
        scheduler, _ = scheduler_with_traffic(**{**base, **change})
        scheduler.run_until_time(600.0)
        assert len(stream_labels) == 4

    def test_a_spread_load_fleet_change_draws_a_new_recording(self, stream_labels):
        """Belem's rate under spread load depends on the whole fleet's
        popularity, so the same device in a larger fleet records anew."""
        for devices in (("Belem",), ("Belem",), ("Belem", "Bogota")):
            scheduler, _ = scheduler_with_traffic(
                200, devices=devices, seed=3, spread_load=True
            )
            scheduler.run_until_time(600.0)
        assert stream_labels.count("workload/Belem") == 2

    def test_the_table_holds_one_attachs_inputs(self, stream_labels):
        """Other devices under the same inputs join the table; another
        workload under the same seed empties it, so the first inputs then
        draw afresh."""
        for devices, num_tenants, drawn in (
            (("Belem",), 200, 2),
            (("Bogota",), 200, 4),
            (("Belem",), 200, 4),  # replays
            (("Belem",), 201, 6),  # drops Belem and Bogota
            (("Belem",), 200, 8),
        ):
            scheduler, _ = scheduler_with_traffic(num_tenants, devices=devices, seed=3)
            scheduler.run_until_time(600.0)
            assert len(stream_labels) == drawn
        assert [name for name, _ in workload_module._RECORDINGS.recordings] == ["Belem"]

    def test_a_full_recording_hands_on_a_copy_of_its_streams(
        self, monkeypatch, stream_labels, forget_arrival_recordings
    ):
        """Past its room a recording stores nothing more: every scheduler
        draws on from its own copy of the streams, and sees the traffic an
        unbounded recording gives."""
        expected = self.arrivals(13)
        forget_arrival_recordings()
        monkeypatch.setattr(workload_module, "_RECORDED_ARRIVALS", 40 * len(self.DEVICES))
        assert self.arrivals(13) == expected
        assert self.arrivals(13, policy="deadline") == expected
        assert len(stream_labels) == 2 * 2 * len(self.DEVICES)
        recordings = workload_module._RECORDINGS.recordings.values()
        recorded = [sum(len(chunk.times) for chunk in r.chunks) for r in recordings]
        assert all(40 <= n < 80 for n in recorded)
        assert sum(recorded) < len(expected) / 2

    @staticmethod
    def recording(seed=8):
        scheduler, _ = scheduler_with_traffic(200, devices=("Belem",), seed=seed)
        scheduler.run_until_time(3600.0)
        (recording,) = workload_module._RECORDINGS.recordings.values()
        return recording

    def test_chunks_are_read_only(self, stream_labels):
        chunk = self.recording().chunks[0]
        assert len(chunk.times) == len(chunk.tenants) > 0
        assert not chunk.times.flags.writeable
        with pytest.raises(ValueError):
            chunk.times[0] = 0.0
        with pytest.raises(AttributeError):
            chunk.t0 = 1.0
        for marks in (chunk.tenants, chunk.circuits, chunk.priorities):
            assert isinstance(marks, tuple)

    def test_a_replay_at_another_t0_raises(self, stream_labels):
        recording = self.recording()
        first, second = recording.chunks[:2]
        assert second.t0 == first.times[-1]
        assert recording.chunk(1, second.t0) is second
        with pytest.raises(RuntimeError, match="chunk 1"):
            recording.chunk(1, second.t0 + 1.0)

    def test_a_reused_generator_keeps_its_first_fleet_rates(
        self, forget_arrival_recordings
    ):
        """The recording snapshots the generator, so attaching the same
        object to a smaller spread-load fleet (a new popularity scale)
        cannot reach chunks the first fleet's recording has still to draw."""
        expected = self.arrivals(6, spread_load=True)
        forget_arrival_recordings()
        workload = WorkloadGenerator(300, max_priority=3, spread_load=True)
        first = CloudScheduler(workload=workload, seed=6, downtime_seconds=0.0)
        second = CloudScheduler(workload=workload, seed=6, downtime_seconds=0.0)
        for scheduler, devices in ((first, self.DEVICES), (second, ("Belem",))):
            for name in devices:
                scheduler.register_device(build_qpu(name), queue_model_for(name))
        records = recorded(first)
        first.run_until_time(60.0)
        second.run_until_time(60.0)  # re-scales the shared generator
        first.run_until_time(self.HORIZON)
        assert hex_records(records) == expected
