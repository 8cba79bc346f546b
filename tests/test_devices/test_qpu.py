"""Tests for the simulated QPU model."""

import dataclasses

import numpy as np
import pytest

from repro.circuit import ghz_state
from repro.devices.catalog import build_qpu, device_spec
from repro.devices.qpu import CircuitFootprint, ClockRows, _wave_noise, success_probability
from repro.devices.topology import line_topology
from repro.noise.calibration import CalibrationSnapshot
from repro.noise.drift import DriftModel
from repro.noise.generator import CalibrationGenerator
from repro.simulator.mixing import noisy_probabilities_batch
from repro.transpiler import transpile


@pytest.fixture(scope="module")
def bogota():
    return build_qpu("Bogota")


@pytest.fixture(scope="module")
def ghz_footprint(bogota):
    return transpile(ghz_state(4), bogota.topology).footprint


class TestCircuitFootprint:
    def test_from_circuit(self):
        footprint = CircuitFootprint.from_circuit(ghz_state(3))
        assert footprint.num_two_qubit_gates == 2
        assert footprint.num_measurements == 3

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            CircuitFootprint(-1, 0, 0, 0)


class TestCalibrationLifecycle:
    def test_cycle_indexing(self, bogota):
        period = bogota.spec.calibration_period_hours * 3600
        assert bogota.calibration_cycle(0.0) == 0
        assert bogota.calibration_cycle(period + 1) == 1

    def test_hours_since_calibration_wraps(self, bogota):
        period = bogota.spec.calibration_period_hours * 3600
        assert bogota.hours_since_calibration(period + 3600) == pytest.approx(1.0)

    def test_reported_calibration_constant_within_cycle(self, bogota):
        a = bogota.reported_calibration(1000.0)
        b = bogota.reported_calibration(50000.0)
        assert a.average_cx_error == pytest.approx(b.average_cx_error)

    def test_reported_calibration_changes_at_recalibration(self, bogota):
        period = bogota.spec.calibration_period_hours * 3600
        a = bogota.reported_calibration(1000.0)
        b = bogota.reported_calibration(period + 1000.0)
        assert a.average_cx_error != pytest.approx(b.average_cx_error)

    def test_effective_calibration_is_worse_or_equal(self, bogota):
        now = 20 * 3600.0
        reported = bogota.reported_calibration(now)
        effective = bogota.effective_calibration(now)
        assert effective.average_cx_error >= reported.average_cx_error

    def test_estimated_calibration_between_reported_and_effective(self, bogota):
        now = 20 * 3600.0
        reported = bogota.reported_calibration(now)
        estimated = bogota.estimated_calibration(now)
        assert estimated.average_cx_error >= reported.average_cx_error

    def test_estimated_calibration_is_one_snapshot_per_refresh_step(self):
        qpu = build_qpu("Bogota")
        refresh = qpu.spec.properties_refresh_hours * 3600.0
        first = qpu.estimated_calibration(5.1 * refresh)
        # Every job until the next republish reads the same object ...
        assert qpu.estimated_calibration(5.9 * refresh) is first
        assert qpu.estimated_calibration(6.1 * refresh) is not first
        # ... which is what a fresh generator and drift model give,
        spec = qpu.spec
        reported = CalibrationGenerator(spec.noise_profile, spec.seed).generate(
            device_name=spec.name,
            num_qubits=spec.num_qubits,
            couplings=spec.topology.directed_couplings,
            timestamp=0.0,
            cycle=0,
        )
        drift = DriftModel(spec.drift_profile, spec.seed)
        factor = drift.drift_factor(5 * spec.properties_refresh_hours, 0)
        assert first == reported.scale_errors(factor)
        # and what every other device of the spec reads,
        assert build_qpu("Bogota").estimated_calibration(5.5 * refresh) is first
        # per calibration cycle,
        period = qpu.spec.calibration_period_hours * 3600.0
        assert qpu.estimated_calibration(period + 5.1 * refresh) is not first

    def test_drift_factor_at_least_one(self, bogota):
        for hour in (0, 5, 12, 23):
            assert bogota.drift_factor(hour * 3600.0) >= 1.0


class TestSuccessProbability:
    def test_formula_bounds(self, bogota, ghz_footprint):
        for hour in (0, 6, 18):
            p = bogota.true_success_probability(ghz_footprint, hour * 3600.0)
            assert 0.0 <= p <= 1.0

    def test_bigger_circuits_are_less_likely_to_succeed(self, bogota):
        small = transpile(ghz_state(2), bogota.topology).footprint
        large = transpile(ghz_state(5), bogota.topology).footprint
        now = 3600.0
        assert bogota.true_success_probability(small, now) > bogota.true_success_probability(
            large, now
        )

    def test_crosstalk_lowers_success(self, bogota, ghz_footprint):
        calibration = bogota.reported_calibration(0.0)
        clean = success_probability(calibration, ghz_footprint, crosstalk=0.0, connectivity=0.0)
        dirty = success_probability(calibration, ghz_footprint, crosstalk=0.02, connectivity=4.0)
        assert dirty < clean

    def test_empty_footprint_is_certain(self, bogota):
        calibration = bogota.reported_calibration(0.0)
        footprint = CircuitFootprint(0, 0, 0, 0)
        assert success_probability(calibration, footprint) == pytest.approx(1.0)


class TestExecution:
    def test_execute_returns_counts_with_correct_shots(self, bogota, ghz_footprint, rng):
        (result,) = bogota.execute_batch(
            [ghz_state(4)], ghz_footprint, shots=512, now=3600.0, rng=rng
        )
        assert result.counts.shots == 512
        assert result.backend_name == "Bogota"
        assert result.duration_seconds > 0

    def test_execution_metadata(self, bogota, ghz_footprint, rng):
        (result,) = bogota.execute_batch(
            [ghz_state(4)], ghz_footprint, shots=128, now=7200.0, rng=rng
        )
        assert 0.0 <= result.metadata["success_probability"] <= 1.0
        assert result.metadata["calibration_age_hours"] == pytest.approx(2.0)

    def test_execution_noise_map_normalized(self, bogota, ghz_footprint):
        spec = bogota.execution_noise(ghz_footprint, 3600.0)
        (probs,) = noisy_probabilities_batch([ghz_state(4)], [spec])
        assert probs.sum() == pytest.approx(1.0)

    def test_noisier_device_has_lower_success(self, ghz_footprint, rng):
        x2 = build_qpu("x2")
        bogota = build_qpu("Bogota")
        now = 3600.0
        assert x2.true_success_probability(
            ghz_footprint, now
        ) < bogota.true_success_probability(ghz_footprint, now)

    def test_batch_clock_is_the_clock_a_batch_runs_on(self, bogota, ghz_footprint, rng):
        now = 5.75 * 3600.0
        starts, durations, elapsed = bogota.batch_clock(4, now)
        assert starts[0] == now
        for i in range(3):
            assert starts[i + 1] > starts[i]
            assert durations[i] == bogota.job_duration_seconds(starts[i])
        # Half a job slot per circuit.
        assert elapsed == pytest.approx(sum(durations) / 2.0)
        assert bogota._walk_clock(4, now)[:2] == (starts, durations)
        results = bogota.execute_batch(
            [ghz_state(4)] * 4, ghz_footprint, shots=64, now=now, rng=rng
        )
        assert [r.duration_seconds for r in results] == durations

    def test_timeline_reads_one_drift_evaluation_per_start(
        self, bogota, ghz_footprint, monkeypatch, rng
    ):
        """Clock, noise spec and metadata of a batch equal — bit for bit —
        what the public per-instant methods return at each circuit start."""
        now = 23.9 * 3600.0  # the batch crosses a recalibration
        calls = []
        original = bogota._drift.drift_factor
        monkeypatch.setattr(
            bogota._drift,
            "drift_factor",
            lambda hours, cycle=0: calls.append(hours) or original(hours, cycle),
        )
        results = bogota.execute_batch(
            [ghz_state(4)] * 24, ghz_footprint, shots=16, now=now, rng=rng
        )
        assert len(calls) == 24  # the noise, built at resolve, reads the walk's triples
        starts, durations, _, drifts = bogota._walk_clock(24, now)
        width = ghz_footprint.num_measurements
        specs = _wave_noise([ClockRows(bogota, ghz_footprint, drifts, width)]).specs()
        assert bogota.calibration_cycle(starts[0]) != bogota.calibration_cycle(starts[-1])
        for start, duration, spec, result in zip(starts, durations, specs, results):
            assert duration == result.duration_seconds == bogota.job_duration_seconds(start)
            assert spec == bogota.execution_noise(ghz_footprint, start)
            assert result.metadata == {
                "success_probability": spec.success_probability,
                "calibration_age_hours": bogota.hours_since_calibration(start),
                "drift_factor": bogota.drift_factor(start),
            }

    def test_job_duration_positive_and_slows_with_drift(self, bogota):
        base = bogota.spec.base_job_seconds
        assert bogota.job_duration_seconds(0.0) >= base * 0.99


class TestQPUSpecValidation:
    def test_topology_width_mismatch_rejected(self):
        from repro.devices.qpu import QPUSpec

        with pytest.raises(ValueError):
            QPUSpec(
                name="bad",
                num_qubits=3,
                processor="p",
                quantum_volume=8,
                topology=line_topology(5),
            )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("properties_refresh_hours", 0.0),
            ("properties_refresh_hours", -2.0),
        ],
    )
    def test_timing_fields_must_be_finite_and_positive(self, field, value):
        """A zero or negative refresh made every call a new refresh step (one
        snapshot per call, kept for the process).  NaN and ±inf in every
        timing field are walked by ``tests/test_fields.py``."""
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(device_spec("Bogota"), **{field: value})
