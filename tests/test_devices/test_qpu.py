"""Tests for the simulated QPU model."""

import dataclasses
import itertools

import numpy as np
import pytest

from repro.circuit import ghz_state
from repro.circuit import sweep as sweep_module
from repro.circuit.sweep import ParameterSweep
from repro.core.objective import EnergyObjective
from repro.devices.catalog import build_qpu, device_spec
from repro.devices.qpu import (
    CircuitFootprint,
    CloudJob,
    _wave_noise,
    job_slot_circuit_seconds,
    resolve_batches,
    success_probability,
)
from repro.devices.topology import line_topology
from repro.noise.calibration import CalibrationSnapshot
from repro.noise.drift import DriftModel
from repro.noise.generator import CalibrationGenerator
from repro.simulator.mixing import noisy_probabilities_batch
from repro.transpiler import transpile
from repro.vqa.tasks import GradientTask


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

    def test_a_batch_runs_on_the_device_clock(self, bogota, ghz_footprint, rng):
        """Circuit ``i`` runs at the job duration of its own start, half a
        job slot per predecessor after the batch starts."""
        now = 5.75 * 3600.0
        results = bogota.execute_batch(
            [ghz_state(4)] * 4, ghz_footprint, shots=64, now=now, rng=rng
        )
        elapsed = 0.0
        for result in results:
            assert result.duration_seconds == bogota.job_duration_seconds(now + elapsed)
            elapsed += result.duration_seconds / 2.0
        assert elapsed > 0.0

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
        durations, drifts, _ = bogota._walk_clock(24, now)
        # Each start is ``now`` plus its predecessors' job slots, summed from 0.
        offsets = itertools.accumulate(
            map(job_slot_circuit_seconds, durations[:-1]), initial=0.0
        )
        starts = [now + offset for offset in offsets]
        width = ghz_footprint.num_measurements
        job = CloudJob(-1, "Bogota", len(drifts), 1, now, qpu=bogota, footprint=ghz_footprint,
                       drifts=drifts, width=width)
        specs = _wave_noise([job]).specs()
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


class TestStackedWaves:
    """A multi-job template wave runs as one sweep over the jobs' stacked
    matrices, each checked once, when its own sweep was built."""

    def test_stacked_sweep_is_the_vstack_read_only(self, qaoa_problem):
        templates = qaoa_problem.estimator.template_circuits()
        parts = [
            ParameterSweep(templates, [[0.1, -0.0], [0.2, 0.3]]),
            ParameterSweep(templates, [0.4, 0.5]),
        ]
        stacked = ParameterSweep.stacked(parts)
        assert stacked.templates is parts[0].templates
        expected = ParameterSweep(templates, np.vstack([part.theta for part in parts])).theta
        assert stacked.theta.tobytes() == expected.tobytes() and not stacked.theta.flags.writeable
        assert len(stacked) == 3 * len(templates)

    def test_resolving_a_wave_checks_no_matrix_again(self, qaoa_problem, monkeypatch):
        objective = EnergyObjective(qaoa_problem.estimator)
        qpus = [build_qpu("Belem"), build_qpu("Bogota")]
        template = qaoa_problem.estimator.template_circuits()[0]
        footprint = transpile(template, qpus[0].topology).footprint
        parked = []
        for index in range(4):
            job = objective.build_job(GradientTask(index, index % 2), [0.1 * index, -0.3])
            rng = np.random.default_rng(index)
            record = CloudJob(index, qpus[index % 2].name, len(job.batch), 128, 30.0 * index)
            qpus[index % 2].execute_batch(
                job.batch, footprint, 128, 30.0 * index, rng=rng, park=record
            )
            parked.append(record)
        jobs = list(parked)
        checks = []
        original = sweep_module.checked_theta
        monkeypatch.setattr(
            sweep_module, "checked_theta", lambda *args: checks.append(args) or original(*args)
        )
        resolve_batches(parked)
        assert checks == [] and parked == []
        assert all(sum(counts.values()) == 128 for job in jobs for counts in job.counts)
