"""Tests for the ASGD update rule and parameter state."""

import numpy as np
import pytest

from repro.vqa.optimizer import AsgdRule, ParameterVectorState, clip_gradient, initial_parameters


class TestClipGradient:
    def test_no_clipping_when_disabled(self):
        assert clip_gradient(100.0, 0.0) == pytest.approx(100.0)

    def test_clipping(self):
        assert clip_gradient(5.0, 2.0) == pytest.approx(2.0)
        assert clip_gradient(-5.0, 2.0) == pytest.approx(-2.0)
        assert clip_gradient(1.0, 2.0) == pytest.approx(1.0)


class TestAsgdRule:
    def test_basic_step(self):
        rule = AsgdRule(learning_rate=0.1)
        assert rule.step(1.0, gradient=2.0) == pytest.approx(0.8)

    def test_weighted_step_matches_eq4(self):
        """theta <- theta - w * alpha * g (paper Eq. 4)."""
        rule = AsgdRule(learning_rate=0.1)
        assert rule.step(0.0, gradient=1.0, weight=1.5) == pytest.approx(-0.15)
        assert rule.step(0.0, gradient=1.0, weight=0.5) == pytest.approx(-0.05)

    def test_zero_weight_freezes_parameter(self):
        rule = AsgdRule(learning_rate=0.1)
        assert rule.step(0.7, gradient=10.0, weight=0.0) == pytest.approx(0.7)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            AsgdRule().step(0.0, 1.0, weight=-1.0)

    def test_invalid_learning_rate_rejected(self):
        with pytest.raises(ValueError):
            AsgdRule(learning_rate=0.0)

    def test_gradient_bound_applied(self):
        rule = AsgdRule(learning_rate=1.0, gradient_bound=0.5)
        assert rule.step(0.0, gradient=10.0) == pytest.approx(-0.5)


class TestParameterVectorState:
    def test_snapshot_is_immutable_copy(self):
        state = ParameterVectorState(np.zeros(3))
        snap = state.snapshot()
        state.apply(0, 1.0, AsgdRule(0.1))
        assert snap == (0.0, 0.0, 0.0)

    def test_apply_updates_value_and_counters(self):
        state = ParameterVectorState(np.zeros(2))
        new_value = state.apply(1, gradient=1.0, rule=AsgdRule(0.1), weight=2.0)
        assert new_value == pytest.approx(-0.2)
        assert state.update_counts[1] == 1
        assert state.version == 1

    def test_out_of_range_index_rejected(self):
        state = ParameterVectorState(np.zeros(2))
        with pytest.raises(IndexError):
            state.apply(5, 1.0, AsgdRule(0.1))

    def test_min_updates(self):
        state = ParameterVectorState(np.zeros(2))
        state.apply(0, 1.0, AsgdRule(0.1))
        assert state.min_updates() == 0
        state.apply(1, 1.0, AsgdRule(0.1))
        assert state.min_updates() == 1


class TestInitialParameters:
    def test_shape_and_scale(self):
        rng = np.random.default_rng(0)
        theta = initial_parameters(16, rng, scale=0.1)
        assert theta.shape == (16,)
        assert np.all(np.abs(theta) <= 0.1)

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            initial_parameters(0, np.random.default_rng(0))
