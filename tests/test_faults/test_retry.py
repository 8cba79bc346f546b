"""Tests for the retry/backoff policy."""

import math

import numpy as np
import pytest

from repro.faults import RetryPolicy


class TestValidation:
    def test_defaults_valid(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 3

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_backoff_seconds=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(base_backoff_seconds=100.0, max_backoff_seconds=50.0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter_fraction=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(deadline_seconds=0.0)

    @pytest.mark.parametrize("deadline", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_deadline(self, deadline):
        with pytest.raises(ValueError, match="deadline_seconds"):
            RetryPolicy(deadline_seconds=deadline)


class TestBackoff:
    def test_exponential_growth_without_jitter(self):
        policy = RetryPolicy(
            base_backoff_seconds=10.0, backoff_multiplier=2.0, jitter_fraction=0.0
        )
        rng = np.random.default_rng(0)
        assert policy.backoff_seconds(1, rng) == 10.0
        assert policy.backoff_seconds(2, rng) == 20.0
        assert policy.backoff_seconds(3, rng) == 40.0

    def test_backoff_capped(self):
        policy = RetryPolicy(
            base_backoff_seconds=10.0,
            backoff_multiplier=10.0,
            max_backoff_seconds=50.0,
            jitter_fraction=0.0,
        )
        rng = np.random.default_rng(0)
        assert policy.backoff_seconds(5, rng) == 50.0

    def test_jitter_band_and_determinism(self):
        policy = RetryPolicy(base_backoff_seconds=100.0, jitter_fraction=0.1)
        values = [
            policy.backoff_seconds(1, np.random.default_rng(seed))
            for seed in range(50)
        ]
        assert all(90.0 <= v <= 110.0 for v in values)
        assert len(set(round(v, 9) for v in values)) > 1
        # Same rng state, same jitter.
        assert policy.backoff_seconds(
            1, np.random.default_rng(3)
        ) == policy.backoff_seconds(1, np.random.default_rng(3))

    def test_attempt_is_one_based(self):
        with pytest.raises(ValueError):
            RetryPolicy().backoff_seconds(0, np.random.default_rng(0))
