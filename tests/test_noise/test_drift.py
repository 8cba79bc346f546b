"""Tests for the time-dependent drift model."""

import math

import pytest

from repro.noise.drift import DriftModel, DriftProfile


class TestDriftProfile:
    def test_defaults_valid(self):
        DriftProfile()

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            DriftProfile(drift_rate=-0.1)

    @pytest.mark.parametrize("hours", [math.nan, math.inf, -math.inf])
    def test_non_finite_oscillation_period_rejected(self, hours):
        with pytest.raises(ValueError, match="oscillation_period_hours"):
            DriftProfile(oscillation_period_hours=hours)

    def test_burst_probability_range(self):
        with pytest.raises(ValueError):
            DriftProfile(burst_probability=1.5)

    def test_burst_magnitude_minimum(self):
        with pytest.raises(ValueError):
            DriftProfile(burst_magnitude=0.5)


class TestDriftModel:
    def test_factor_at_zero_age_is_modest(self):
        model = DriftModel(DriftProfile(), device_seed=1)
        factor = model.drift_factor(0.0)
        assert 1.0 <= factor <= 1.3

    def test_factor_grows_with_age_on_average(self):
        profile = DriftProfile(drift_rate=0.05, oscillation_amplitude=0.0, burst_probability=0.0)
        model = DriftModel(profile, device_seed=2)
        assert model.drift_factor(20.0) > model.drift_factor(1.0)

    def test_deterministic_given_same_inputs(self):
        model = DriftModel(DriftProfile(), device_seed=3)
        assert model.drift_factor(5.0, cycle=2) == model.drift_factor(5.0, cycle=2)

    def test_cycles_differ(self):
        profile = DriftProfile(oscillation_amplitude=0.3)
        model = DriftModel(profile, device_seed=4)
        values = {round(model.drift_factor(5.0, cycle=c), 6) for c in range(6)}
        assert len(values) > 1

    def test_devices_differ(self):
        profile = DriftProfile(oscillation_amplitude=0.3)
        a = DriftModel(profile, device_seed=10)
        b = DriftModel(profile, device_seed=11)
        assert a.drift_factor(7.0) != b.drift_factor(7.0)

    def test_negative_age_treated_as_zero(self):
        model = DriftModel(DriftProfile(), device_seed=5)
        assert model.drift_factor(-3.0) == model.drift_factor(0.0)

    def test_speed_factor_is_inverse(self):
        model = DriftModel(DriftProfile(), device_seed=6)
        factor = model.drift_factor(10.0, cycle=1)
        assert model.speed_factor(10.0, cycle=1) == pytest.approx(1.0 / factor)

    def test_bursts_inflate_errors(self):
        """With burst probability 1, some calibration age inside the burst
        window must show a factor of at least the burst magnitude."""
        profile = DriftProfile(
            drift_rate=0.0,
            oscillation_amplitude=0.0,
            burst_probability=1.0,
            burst_magnitude=5.0,
            burst_duration_hours=6.0,
        )
        model = DriftModel(profile, device_seed=7)
        factors = [model.drift_factor(h, cycle=0) for h in range(0, 27)]
        assert max(factors) >= 5.0
        assert min(factors) == pytest.approx(1.0)
