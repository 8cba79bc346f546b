"""Worker telemetry shipping: fork/spawn merge determinism and coverage."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import EQCConfig, EQCEnsemble
from repro.hamiltonian.expectation import EnergyEstimator
from repro.telemetry import TELEMETRY, run_report, telemetry_session, validate_chrome_trace

#: Counters whose fleet-wide totals must not depend on where the work ran.
#: Points and op applications are counted per row, so one stacked pass adds
#: what the separate per-job passes add.  (``engine.executions`` does depend
#: on it: a worker resolves its jobs one at a time, while in process the
#: provider stacks every parked job of the fleet into one engine pass.)
MERGED_COUNTERS = (
    "engine.points_executed",
    "engine.matrix_ops_applied",
    "engine.diagonal_ops_applied",
)


def _train(problem, *, workers, start_method=None):
    estimator = EnergyEstimator(problem.ansatz, problem.hamiltonian)
    config = EQCConfig(
        device_names=("x2", "Belem", "Bogota"),
        shots=128,
        seed=2,
        parallel_workers=workers,
        parallel_start_method=start_method,
    )
    ensemble = EQCEnsemble.for_estimator(estimator, config)
    theta0 = np.zeros(estimator.num_parameters)
    return ensemble.train(theta0, num_epochs=1)


@pytest.fixture(scope="module")
def sequential_counters(vqe_problem):
    with telemetry_session():
        _train(vqe_problem, workers=0)
        counters = dict(TELEMETRY.registry.counters())
    TELEMETRY.reset()
    return counters


class TestWorkerMerge:
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_merged_counters_match_sequential(
        self, vqe_problem, sequential_counters, start_method
    ):
        with telemetry_session():
            _train(vqe_problem, workers=2, start_method=start_method)
            merged = dict(TELEMETRY.registry.counters())
        for name in MERGED_COUNTERS:
            assert merged[name] == sequential_counters[name], name
        jobs = sum(v for k, v in merged.items() if k.startswith("qpu.jobs"))
        assert merged["engine.executions"] == jobs
        assert sequential_counters["engine.executions"] < merged["engine.executions"]
        # Per-device QPU counters are owned by exactly one worker each and
        # must survive the merge untouched.
        for key, value in sequential_counters.items():
            if key.startswith("qpu."):
                assert merged[key] == value, key

    def test_worker_spans_carry_worker_pids(self, vqe_problem):
        with telemetry_session():
            _train(vqe_problem, workers=2, start_method="fork")
            trace = TELEMETRY.tracer.to_chrome()
        summary = validate_chrome_trace(trace)
        wall_pids = {
            e["pid"]
            for e in trace["traceEvents"]
            if e.get("ph") == "X" and e["pid"] != 9999
        }
        # Engine spans recorded inside worker processes use pid worker_id+1.
        assert {1, 2} <= wall_pids
        names = {
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e.get("ph") == "M" and e["name"] == "process_name"
        }
        assert {"worker 0", "worker 1"} <= names
        assert summary["events"] > 0

    def test_fork_workers_do_not_duplicate_parent_events(self, vqe_problem):
        """Events recorded before the pool forks must merge back exactly once."""
        with telemetry_session():
            TELEMETRY.tracer.add_span("pre-fork", "test", 0, 10)
            TELEMETRY.registry.counter("pre.fork").inc()
            _train(vqe_problem, workers=2, start_method="fork")
            report = run_report()
        assert report["counters"]["pre.fork"] == 1.0
        pre_fork_spans = [
            1
            for e in TELEMETRY.tracer.export_payload()["events"]
            if e["name"] == "pre-fork"
        ]
        assert len(pre_fork_spans) == 1

    def test_telemetry_off_ships_nothing(self, vqe_problem):
        assert not TELEMETRY.enabled
        _train(vqe_problem, workers=2, start_method="fork")
        assert len(TELEMETRY.registry) == 0
        assert len(TELEMETRY.tracer) == 0
