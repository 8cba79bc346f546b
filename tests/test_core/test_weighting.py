"""Tests for the PCorrect estimate and weight normalization (paper Eq. 2/4)."""

import pytest

from repro.circuit import ghz_state, hardware_efficient_ansatz
from repro.core.weighting import (
    BOUNDS_MODERATE,
    BOUNDS_TIGHT,
    BOUNDS_WIDE,
    WeightBounds,
    WeightingConfig,
    estimate_p_correct,
    normalize_weights,
)
from repro.devices.catalog import build_qpu
from repro.transpiler import transpile


class TestEstimatePCorrect:
    def test_within_unit_interval(self):
        qpu = build_qpu("Belem")
        footprint = transpile(hardware_efficient_ansatz(4), qpu.topology).footprint
        p = estimate_p_correct(qpu.reported_calibration(0.0), footprint)
        assert 0.0 < p < 1.0

    def test_noisier_device_scores_lower(self):
        """x2's dense-but-noisy profile must score below Bogota for the same
        logical circuit, the driver of the Fig. 5 weight ordering."""
        ansatz = hardware_efficient_ansatz(4)
        scores = {}
        for name in ("x2", "Bogota"):
            qpu = build_qpu(name)
            footprint = transpile(ansatz, qpu.topology).footprint
            scores[name] = estimate_p_correct(qpu.reported_calibration(0.0), footprint)
        assert scores["x2"] < scores["Bogota"]

    def test_larger_circuit_scores_lower(self):
        qpu = build_qpu("Quito")
        small = transpile(ghz_state(3), qpu.topology).footprint
        large = transpile(hardware_efficient_ansatz(4), qpu.topology).footprint
        calibration = qpu.reported_calibration(0.0)
        assert estimate_p_correct(calibration, large) < estimate_p_correct(calibration, small)

    def test_estimate_excludes_latent_crosstalk(self):
        """The estimate (Eq. 2) must not be lower than the device's true
        success probability computed with the latent cross-talk term."""
        qpu = build_qpu("x2")
        footprint = transpile(hardware_efficient_ansatz(4), qpu.topology).footprint
        estimate = estimate_p_correct(qpu.reported_calibration(0.0), footprint)
        truth = qpu.true_success_probability(footprint, now=0.0)
        assert estimate >= truth - 1e-9


class TestWeightBounds:
    @pytest.mark.parametrize(
        "low, high, field",
        [
            (-0.1, 1.0, "low"),
            (float("nan"), 1.5, "low"),
            (float("inf"), float("inf"), "low"),
            (1.0, 0.5, "high"),
            (0.5, float("inf"), "high"),
            (0.5, float("nan"), "high"),
        ],
        ids=["low-negative", "low-nan", "low-inf", "high-below-low", "high-inf", "high-nan"],
    )
    def test_invalid_bound_names_itself(self, low, high, field):
        with pytest.raises(ValueError, match=rf"^{field} must be finite"):
            WeightBounds(low, high)

    def test_midpoint_and_width(self):
        bounds = WeightBounds(0.5, 1.5)
        assert bounds.midpoint == pytest.approx(1.0)
        assert bounds.width == pytest.approx(1.0)

    def test_paper_presets(self):
        assert (BOUNDS_TIGHT.low, BOUNDS_TIGHT.high) == (0.75, 1.25)
        assert (BOUNDS_MODERATE.low, BOUNDS_MODERATE.high) == (0.5, 1.5)
        assert (BOUNDS_WIDE.low, BOUNDS_WIDE.high) == (0.25, 1.75)


class TestNormalizeWeights:
    def test_unweighted_mode_gives_ones(self):
        weights = normalize_weights({"a": 0.3, "b": 0.9}, None)
        assert weights == {"a": 1.0, "b": 1.0}

    def test_extremes_map_to_bounds(self):
        weights = normalize_weights({"worst": 0.2, "mid": 0.5, "best": 0.8}, BOUNDS_MODERATE)
        assert weights["worst"] == pytest.approx(0.5)
        assert weights["best"] == pytest.approx(1.5)
        assert weights["mid"] == pytest.approx(1.0)

    def test_linear_interpolation(self):
        weights = normalize_weights({"a": 0.0, "b": 0.25, "c": 1.0}, WeightBounds(0.0, 2.0))
        assert weights["b"] == pytest.approx(0.5)

    def test_identical_values_map_to_midpoint(self):
        weights = normalize_weights({"a": 0.7, "b": 0.7}, BOUNDS_MODERATE)
        assert weights == {"a": pytest.approx(1.0), "b": pytest.approx(1.0)}

    def test_empty_input(self):
        assert normalize_weights({}, BOUNDS_MODERATE) == {}

    def test_out_of_range_p_correct_rejected(self):
        with pytest.raises(ValueError):
            normalize_weights({"a": 1.5}, BOUNDS_MODERATE)

    def test_weights_stay_within_bounds(self):
        values = {f"d{i}": v for i, v in enumerate([0.1, 0.4, 0.55, 0.62, 0.97])}
        for bounds in (BOUNDS_TIGHT, BOUNDS_MODERATE, BOUNDS_WIDE):
            weights = normalize_weights(values, bounds)
            assert all(bounds.low - 1e-12 <= w <= bounds.high + 1e-12 for w in weights.values())


class TestWeightingConfig:
    def test_enabled_flag(self):
        assert WeightingConfig(bounds=BOUNDS_MODERATE).enabled
        assert not WeightingConfig(bounds=None).enabled

    def test_describe(self):
        assert WeightingConfig(bounds=None).describe() == "unweighted"
        assert "0.5" in WeightingConfig(bounds=BOUNDS_MODERATE).describe()
