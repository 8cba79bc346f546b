"""Tests for calibration snapshot generation."""

import pytest

from repro.noise.calibration import CalibrationSnapshot
from repro.noise.generator import CalibrationGenerator, NoiseProfile


class TestNoiseProfile:
    def test_defaults_valid(self):
        NoiseProfile()

    def test_invalid_t1_rejected(self):
        with pytest.raises(ValueError):
            NoiseProfile(t1=-1.0)

    def test_error_ranges_validated(self):
        with pytest.raises(ValueError):
            NoiseProfile(cx_error=1.5)

    def test_crosstalk_range(self):
        with pytest.raises(ValueError):
            NoiseProfile(crosstalk=2.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("t1", -1.0),
            ("t1", 0.0),
            ("single_qubit_gate_time", 0.0),
            ("cx_gate_time", -1.0),
        ],
    )
    def test_invalid_value_names_its_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} "):
            NoiseProfile(**{field: value})


class TestCalibrationGenerator:
    def _generate(self, cycle=0, seed=42, spread=0.25):
        profile = NoiseProfile(relative_spread=spread)
        gen = CalibrationGenerator(profile, device_seed=seed)
        return gen.generate(
            device_name="dev",
            num_qubits=4,
            couplings=[(0, 1), (1, 2), (2, 3)],
            timestamp=0.0,
            cycle=cycle,
        )

    def test_snapshot_structure(self):
        snap = self._generate()
        assert isinstance(snap, CalibrationSnapshot)
        assert snap.num_qubits == 4
        assert len(snap.single_qubit_gates) == 4
        # both directions of every coupling are calibrated
        assert len(snap.two_qubit_gates) == 6

    def test_snapshots_are_physical(self):
        snap = self._generate()
        for q in snap.qubits:
            assert q.t2 <= 2 * q.t1 + 1e-15
            assert 0 <= q.readout_p01 <= 0.5
        for g in snap.two_qubit_gates.values():
            assert 0 <= g.error <= 0.5

    def test_deterministic_per_cycle(self):
        assert self._generate(cycle=1).average_cx_error == pytest.approx(
            self._generate(cycle=1).average_cx_error
        )

    def test_cycles_differ(self):
        a = self._generate(cycle=0)
        b = self._generate(cycle=1)
        assert a.average_cx_error != pytest.approx(b.average_cx_error)

    def test_devices_differ(self):
        a = self._generate(seed=1)
        b = self._generate(seed=2)
        assert a.average_t1 != pytest.approx(b.average_t1)

    def test_zero_spread_matches_profile_medians(self):
        snap = self._generate(spread=0.0)
        assert snap.average_t1 == pytest.approx(NoiseProfile().t1)
        assert snap.average_single_qubit_error == pytest.approx(
            NoiseProfile().single_qubit_error
        )

    def test_values_centred_near_profile(self):
        profile = NoiseProfile(relative_spread=0.25)
        snap = self._generate()
        assert 0.3 * profile.cx_error < snap.average_cx_error < 3.0 * profile.cx_error
