"""Tests for scheduling policies: admission, ordering, tenant fairness."""

import copy

import pytest

from _reference.completions import spy_completions
from repro.circuit import ghz_state
from repro.cloud.provider import CloudProvider
from repro.cloud.queueing import queue_model_for
from repro.devices.catalog import build_qpu
from repro.sched import (
    POLICY_REGISTRY,
    BackpressurePolicy,
    CloudScheduler,
    DeadlinePolicy,
    FairSharePolicy,
    FifoPolicy,
    SchedulingPolicy,
    resolve_policy,
)
from repro.transpiler import transpile


def one_device_scheduler(policy, device="Belem"):
    scheduler = CloudScheduler(policy=policy, downtime_seconds=0.0)
    scheduler.register_device(build_qpu(device), queue_model_for(device))
    return scheduler


def fleet_scheduler(policy, devices=("Belem", "Bogota", "Casablanca")):
    scheduler = CloudScheduler(policy=policy, downtime_seconds=0.0)
    for name in devices:
        scheduler.register_device(build_qpu(name), queue_model_for(name))
    return scheduler


class TestResolvePolicy:
    def test_by_name(self):
        assert isinstance(resolve_policy("fair_share"), FairSharePolicy)

    def test_passthrough_instance(self):
        policy = DeadlinePolicy()
        assert resolve_policy(policy) is policy

    def test_none_is_fifo(self):
        assert isinstance(resolve_policy(None), FifoPolicy)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            resolve_policy("round_robin_deluxe")


class TestOrderingPolicies:
    def flood_then_probe(self, policy):
        """10 jobs of tenant A at t=0, then one of tenant B; return B's wait."""
        scheduler = one_device_scheduler(policy)
        flood = [
            scheduler.submit(
                device_name="Belem", arrival=0.0, duration=100.0, tenant="A"
            )
            for _ in range(10)
        ]
        probe = scheduler.submit(
            device_name="Belem", arrival=0.0, duration=100.0, tenant="B"
        )
        for job in (*flood, probe):
            scheduler.run_until_complete(job)
        return probe.wait_seconds

    def test_fifo_makes_sparse_tenant_wait_out_the_flood(self):
        assert self.flood_then_probe(FifoPolicy()) == pytest.approx(1000.0)

    def test_fair_share_bounds_sparse_tenant_latency(self):
        """The paper-motivating separation: under fair share, a light tenant
        overtakes a flooding tenant after one service instead of ten."""
        assert self.flood_then_probe(FairSharePolicy()) == pytest.approx(100.0)


@pytest.mark.parametrize("name", sorted(POLICY_REGISTRY))
def test_pinned_jobs_run_on_their_own_device(name):
    """Every job names its device: each policy admits it to that device's
    queue, and a long job on one device delays only that device's work."""
    scheduler = fleet_scheduler(name)
    finished = spy_completions(scheduler)
    devices = ("Belem", "Bogota", "Casablanca")
    long_job = scheduler.submit(device_name="Belem", arrival=0.0, duration=1000.0)
    jobs = [
        scheduler.submit(device_name=device, arrival=0.0, duration=10.0)
        for device in devices
    ]
    for job in (long_job, *jobs):
        scheduler.run_until_complete(job)
    for device, job in zip(devices, jobs):
        assert job.device_name == device
        assert job in finished[device]
    assert [job.start_time for job in jobs] == [1000.0, 0.0, 0.0]


class TestBackpressurePolicy:
    def test_registered(self):
        assert "backpressure" in POLICY_REGISTRY
        assert isinstance(resolve_policy("backpressure"), BackpressurePolicy)

    def test_validation(self):
        with pytest.raises(ValueError):
            BackpressurePolicy(low_watermark=5, high_watermark=5)
        with pytest.raises(ValueError):
            BackpressurePolicy(low_watermark=-1, high_watermark=4)

    def flood(self, scheduler, count, tenant="A"):
        jobs = [
            scheduler.submit(
                device_name="Belem",
                arrival=0.0,
                duration=500.0,
                tenant=tenant,
                foreground=False,
            )
            for _ in range(count)
        ]
        scheduler.run_until_time(1.0)
        return jobs

    def test_queue_depth_never_exceeds_high_watermark(self):
        policy = BackpressurePolicy(low_watermark=2, high_watermark=6)
        scheduler = one_device_scheduler(policy)
        self.flood(scheduler, 50)
        assert scheduler.queues["Belem"].queue_length <= 6

    def test_admits_everything_below_low_watermark(self):
        policy = BackpressurePolicy(low_watermark=3, high_watermark=6)
        scheduler = one_device_scheduler(policy)
        jobs = self.flood(scheduler, 3)
        assert not any(job.rejected for job in jobs)

    def test_sheds_fractionally_between_watermarks(self):
        policy = BackpressurePolicy(low_watermark=2, high_watermark=20)
        scheduler = one_device_scheduler(policy)
        jobs = self.flood(scheduler, 30)
        rejected = sum(job.rejected for job in jobs)
        # Partial shedding: some arrivals bounce, but not all of the
        # between-watermark band does.
        assert 0 < rejected < 28

    def test_shedding_is_deterministic(self):
        def rejected_ids():
            policy = BackpressurePolicy(low_watermark=2, high_watermark=8)
            scheduler = one_device_scheduler(policy)
            jobs = self.flood(scheduler, 40)
            return [job.job_id for job in jobs if job.rejected]

        first = rejected_ids()
        assert first and first == rejected_ids()

    def test_foreground_is_always_admitted(self):
        policy = BackpressurePolicy(low_watermark=1, high_watermark=2)
        scheduler = one_device_scheduler(policy)
        self.flood(scheduler, 20)
        probe = scheduler.submit(
            device_name="Belem", arrival=2.0, duration=10.0, foreground=True
        )
        scheduler.run_until_complete(probe)
        assert not probe.rejected and probe.done


class TestDeadlinePolicy:
    def test_registered(self):
        assert "deadline" in POLICY_REGISTRY
        assert isinstance(resolve_policy("deadline"), DeadlinePolicy)

    def test_validation(self):
        with pytest.raises(ValueError):
            DeadlinePolicy(foreground_slack=0.0)
        with pytest.raises(ValueError):
            DeadlinePolicy(tier_slacks=(100.0, -1.0))

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"tier_slacks": ()}, "tier_slacks"),
            ({"tier_slacks": (900.0, float("nan"))}, r"tier_slacks\[1\]"),
            ({"tier_slacks": (float("inf"),)}, r"tier_slacks\[0\]"),
        ],
    )
    def test_rejects_an_empty_or_non_finite_tier_table_by_name(self, kwargs, field):
        """An empty table divided by zero at the first tenant arrival, and a
        NaN deadline never wins ``d < best`` so EDF order degraded silently:
        both are refused at construction, naming the field."""
        with pytest.raises(ValueError, match=field):
            DeadlinePolicy(**kwargs)

    @staticmethod
    def tenants_in_different_tiers():
        """Two tenant names hashing into the tightest and loosest tiers."""
        import zlib

        policy = DeadlinePolicy()
        found = {}
        i = 0
        while len(found) < len(policy.tier_slacks):
            name = f"t{i}"
            found.setdefault(zlib.crc32(name.encode()) % len(policy.tier_slacks), name)
            i += 1
        tight = found[min(found)]
        loose = found[max(found)]
        assert policy.slack_for(
            type("J", (), {"foreground": False, "tenant": tight})()
        ) < policy.slack_for(type("J", (), {"foreground": False, "tenant": loose})())
        return tight, loose

    def test_admission_stamps_deadlines(self):
        scheduler = one_device_scheduler(DeadlinePolicy(foreground_slack=600.0))
        job = scheduler.submit(device_name="Belem", arrival=5.0, duration=10.0)
        scheduler.run_until_complete(job)
        assert job.deadline == pytest.approx(605.0)

    def test_edf_lets_tight_tier_overtake_loose_tier(self):
        tight, loose = self.tenants_in_different_tiers()
        scheduler = one_device_scheduler(DeadlinePolicy())
        blocker = scheduler.submit(device_name="Belem", arrival=0.0, duration=100.0)
        late_bulk = scheduler.submit(
            device_name="Belem",
            arrival=0.0,
            duration=10.0,
            tenant=loose,
            foreground=False,
        )
        interactive = scheduler.submit(
            device_name="Belem",
            arrival=1.0,
            duration=10.0,
            tenant=tight,
            foreground=False,
        )
        for job in (blocker, late_bulk, interactive):
            scheduler.run_until_complete(job)
        # FIFO would start the bulk job first (it arrived earlier); EDF
        # starts the interactive tenant because its deadline is sooner.
        assert interactive.start_time == pytest.approx(100.0)
        assert late_bulk.start_time == pytest.approx(110.0)


class TestStatisticalClock:
    """Without a scheduler a job starts at one closed-form queue-wait draw:
    ``max(arrival + sample_wait(arrival, rng), free_at)``, drawn from the
    endpoint's stream after the shots of every earlier job on it."""

    @staticmethod
    def provider():
        return CloudProvider([build_qpu("Belem")], seed=5, shots=64)

    @staticmethod
    def submit(provider, now):
        circuit = ghz_state(4)
        footprint = transpile(circuit, provider.qpu("Belem").topology).footprint
        return provider.submit("Belem", [circuit], footprint, now=now)

    @staticmethod
    def expected_start(provider, now):
        reference = copy.deepcopy(provider._endpoint("Belem"))
        return max(
            now + reference.queue_model.sample_wait(now, reference.rng),
            reference.free_at,
        )

    def test_matches_closed_form_queue_math(self):
        provider = self.provider()
        expected = self.expected_start(provider, 100.0)
        assert self.submit(provider, 100.0).start_time == expected

    @pytest.mark.parametrize("read_first", [True, False])
    def test_next_wait_follows_the_earlier_jobs_shots(self, read_first):
        """A later job's wait comes after the shots an earlier job draws,
        whether the earlier job was read or its submit resolves it."""
        provider = self.provider()
        first = self.submit(provider, 100.0)
        shadow = copy.deepcopy(provider)
        shadow.resolve()  # the 64 shots the first job draws before the next wait
        expected = self.expected_start(shadow, 5000.0)
        assert expected != self.expected_start(provider, 5000.0)
        if read_first:
            first.results
        assert self.submit(provider, 5000.0).start_time == expected

    def test_respects_device_backlog(self):
        provider = self.provider()
        provider._endpoint("Belem").free_at = 1e9
        assert self.submit(provider, 0.0).start_time == 1e9


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        def run():
            scheduler = fleet_scheduler(SchedulingPolicy())
            names = scheduler.device_names
            jobs = [
                scheduler.submit(
                    device_name=names[i % len(names)], arrival=float(i), duration=30.0
                )
                for i in range(6)
            ]
            for job in jobs:
                scheduler.run_until_complete(job)
            return [(job.device_name, job.start_time, job.finish_time) for job in jobs]

        assert run() == run()
