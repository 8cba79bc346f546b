"""Cross-layer instrumentation: golden bit-exactness and real-run traces."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends.cache import TranspileCache
from repro.backends.noisy import NoisyBackend
from repro.circuit import hardware_efficient_ansatz
from repro.core import EQCConfig, EQCEnsemble
from repro.devices import build_qpu
from repro.engine import ProgramCache
from repro.faults import FaultPlan
from repro.hamiltonian.expectation import EnergyEstimator
from repro.telemetry import (
    SIM_PID,
    TELEMETRY,
    run_report,
    telemetry_session,
    validate_chrome_trace,
)


def _train(problem, **overrides):
    estimator = EnergyEstimator(problem.ansatz, problem.hamiltonian)
    config = EQCConfig(
        device_names=("x2", "Belem"), shots=128, seed=5, **overrides
    )
    ensemble = EQCEnsemble.for_estimator(estimator, config)
    theta0 = np.zeros(estimator.num_parameters)
    return ensemble.train(theta0, num_epochs=1)


def _assert_identical(reference, candidate):
    assert len(candidate.records) == len(reference.records)
    for expected, actual in zip(reference.records, candidate.records):
        assert actual.loss == expected.loss
        assert np.array_equal(actual.parameters, expected.parameters)
        assert actual.sim_time_hours == expected.sim_time_hours


class TestGoldenBitExactness:
    """Telemetry consumes no RNG: seeded histories are identical on or off."""

    def test_statistical_path(self, vqe_problem):
        reference = _train(vqe_problem)
        with telemetry_session():
            traced = _train(vqe_problem)
        _assert_identical(reference, traced)

    def test_scheduler_path(self, vqe_problem):
        kwargs = {"scheduling_policy": "fifo", "background_tenants": 15}
        reference = _train(vqe_problem, **kwargs)
        with telemetry_session():
            traced = _train(vqe_problem, **kwargs)
        _assert_identical(reference, traced)

    def test_fault_path(self, vqe_problem):
        kwargs = {"fault_plan": FaultPlan(seed=11, transient_failure_rate=0.3)}
        reference = _train(vqe_problem, **kwargs)
        with telemetry_session():
            traced = _train(vqe_problem, **kwargs)
        _assert_identical(reference, traced)
        assert reference.metadata["provider_faults"]["transient_failures"] > 0
        assert traced.metadata["provider_faults"] == reference.metadata["provider_faults"]
        assert traced.metadata["fleet_events"] == reference.metadata["fleet_events"]

    def test_dispatch_deadline_path(self, vqe_problem):
        kwargs = {"dispatch_deadline": 120.0}
        reference = _train(vqe_problem, **kwargs)
        with telemetry_session():
            traced = _train(vqe_problem, **kwargs)
        _assert_identical(reference, traced)
        assert reference.metadata["fault_stats"]["stragglers_cut"] > 0
        assert traced.metadata["fault_stats"] == reference.metadata["fault_stats"]
        assert traced.metadata["fleet_events"] == reference.metadata["fleet_events"]

    def test_noisy_backend_counts(self):
        """Seeded measurement counts are bit-exact with telemetry on."""
        qpu = build_qpu("Belem")
        circuit = hardware_efficient_ansatz(4).assign_by_order([0.3] * 16)

        def sample():
            return NoisyBackend(qpu).run([circuit], shots=512, seed=77)[0].counts

        reference = sample()
        with telemetry_session():
            traced = sample()
        assert traced == reference


class TestInstrumentedRun:
    def test_trace_covers_engine_sched_and_eqc(self, vqe_problem):
        with telemetry_session():
            history = _train(
                vqe_problem, scheduling_policy="fifo", background_tenants=15
            )
            trace = TELEMETRY.tracer.to_chrome()
            report = run_report()
        summary = validate_chrome_trace(trace)
        assert {"engine", "sched", "eqc"} <= set(summary["categories"])
        # Per-device sim lanes plus the EQC epoch lane.
        assert summary["tracks"] >= 3
        counters = report["counters"]
        assert counters["engine.executions"] > 0
        # The process-wide program cache may already be warm from earlier
        # tests, so assert on lookups (hits + misses) rather than misses.
        cache_lookups = sum(
            value
            for key, value in counters.items()
            if key.startswith("engine.program_cache.")
        )
        assert cache_lookups > 0
        assert any(key.startswith("sched.jobs_completed") for key in counters)
        assert any(key.startswith("qpu.jobs") for key in counters)
        assert report["histograms"]["sched.queue_wait_seconds"]["count"] > 0
        # The run also published SLO gauges at collection time.
        assert "sched.slo.tenant_fairness_jain" in report["gauges"]
        assert history.metadata["scheduler"]["slo"]["jobs_completed"] > 0

    def test_resolve_waves_say_how_wide_they_were(self, vqe_problem):
        with telemetry_session():
            history = _train(vqe_problem)
            report = run_report()
        counters, waves = report["counters"], report["histograms"]["cloud.resolve_jobs"]
        jobs = sum(v for k, v in counters.items() if k.startswith("qpu.jobs"))
        circuits = sum(v for k, v in counters.items() if k.startswith("qpu.circuits"))
        # Every job's physics ran in exactly one wave, every circuit as one row,
        # and each wave was one engine pass.
        assert jobs == history.total_jobs
        assert waves["sum"] == jobs
        assert counters["cloud.resolve_rows"] == circuits == counters["engine.points_executed"]
        assert waves["count"] == counters["engine.executions"] < jobs

    def test_master_gauges_match_the_history(self, vqe_problem):
        with telemetry_session():
            history = _train(vqe_problem)
            gauges = dict(TELEMETRY.registry.gauges())
        assert gauges["eqc.jobs_dispatched"] == history.total_jobs
        assert gauges["eqc.updates_applied"] == history.total_updates
        assert gauges["eqc.circuits_executed"] == history.metadata["circuits_executed"]
        assert gauges["eqc.max_staleness"] == history.metadata["max_staleness"]

    def test_repeated_runs_publish_identical_job_counters(self, vqe_problem):
        def job_counters():
            with telemetry_session():
                _train(vqe_problem)
                counters = dict(TELEMETRY.registry.counters())
                gauges = dict(TELEMETRY.registry.gauges())
            # Cache counters depend on what earlier runs left warm; the job,
            # wave and master counts depend only on the seeded run.
            keep = ("qpu.", "cloud.", "engine.points_executed", "eqc.")
            return (
                {k: v for k, v in counters.items() if k.startswith(keep)},
                {k: v for k, v in gauges.items() if k.startswith("eqc.")},
            )

        first = job_counters()
        assert first[0] and first[1]
        assert job_counters() == first

    def test_wall_spans_share_one_main_process_track(self, vqe_problem):
        with telemetry_session():
            _train(vqe_problem)
            trace = TELEMETRY.tracer.to_chrome()
        events = trace["traceEvents"]
        processes = {
            e["pid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert processes == {0: "main", SIM_PID: "simulated timeline"}
        spans = [e for e in events if e["ph"] == "X"]
        assert {e["pid"] for e in spans} == {0, SIM_PID}
        assert {e["tid"] for e in spans if e["pid"] == 0} == {0}

    def test_disabled_mode_records_nothing(self, vqe_problem):
        assert not TELEMETRY.enabled
        _train(vqe_problem)
        assert len(TELEMETRY.registry) == 0
        assert len(TELEMETRY.tracer) == 0

    def test_direct_gradient_api_counts_sweeps(self, vqe_problem):
        from repro.backends import StatevectorBackend
        from repro.vqa.gradient import sampled_parameter_shift_gradient

        estimator = EnergyEstimator(vqe_problem.ansatz, vqe_problem.hamiltonian)
        theta = np.zeros(estimator.num_parameters)
        with telemetry_session():
            sampled_parameter_shift_gradient(
                estimator, theta, StatevectorBackend(), shots=64, seed=1,
                parameter_indices=[0, 3],
            )
            counters = dict(TELEMETRY.registry.counters())
        assert counters["vqa.gradient_sweeps"] == 1.0
        assert counters["vqa.gradient_parameters"] == 2.0


class TestSchedulerSlo:
    def test_metrics_carries_slo_section(self, vqe_problem):
        history = _train(
            vqe_problem, scheduling_policy="fifo", background_tenants=15
        )
        slo = history.metadata["scheduler"]["slo"]
        for field in (
            "queue_wait_mean",
            "queue_wait_p50",
            "queue_wait_p99",
            "rejected_fraction",
            "tenant_fairness_jain",
        ):
            assert field in slo
        assert slo["queue_wait_p99"] >= slo["queue_wait_p50"] >= 0.0
        assert 0.0 < slo["tenant_fairness_jain"] <= 1.0 + 1e-12
        assert 0.0 <= slo["rejected_fraction"] <= 1.0


class TestCacheStats:
    def test_program_cache_stats(self):
        cache = ProgramCache()
        circuit = hardware_efficient_ansatz(3)
        cache.get_or_compile(circuit)
        cache.get_or_compile(circuit)
        stats = cache.stats()
        assert stats == {"hits": 1, "misses": 1, "size": 1, "hit_rate": 0.5}

    def test_transpile_cache_stats_and_publish(self):
        cache = TranspileCache()
        topology = build_qpu("Belem").topology
        template = hardware_efficient_ansatz(4)
        cache.get_or_transpile(template, topology)
        cache.get_or_transpile(template, topology)
        assert cache.stats() == {"hits": 1, "misses": 1, "size": 1, "hit_rate": 0.5}
        from repro.telemetry import MetricsRegistry

        registry = MetricsRegistry()
        cache.publish(registry)
        gauges = dict(registry.gauges())
        assert gauges["backends.transpile_cache.hits"] == 1.0
        assert gauges["backends.transpile_cache.hit_rate"] == 0.5

    def test_cache_counters_land_in_registry_when_enabled(self):
        with telemetry_session():
            cache = ProgramCache()
            circuit = hardware_efficient_ansatz(3)
            cache.get_or_compile(circuit)
            cache.get_or_compile(circuit)
            counters = dict(TELEMETRY.registry.counters())
        assert counters["engine.program_cache.misses"] == 1.0
        assert counters["engine.program_cache.hits"] == 1.0
