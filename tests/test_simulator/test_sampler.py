"""Tests for shot sampling and readout-error application."""

import numpy as np
import pytest

from repro.circuit import ghz_state
from repro.simulator import readout_confusion_matrix
from repro.simulator.result import Counts
from repro.simulator.sampler import (
    apply_readout_error,
    distribution_to_counts,
    sample_circuit_ideal,
    sample_distribution,
    sample_statevector,
)
from repro.simulator.statevector import Statevector


class TestSampleDistribution:
    def test_total_shots_preserved(self, rng):
        counts = sample_distribution(np.array([0.25, 0.75]), 1000, rng)
        assert sum(counts.values()) == 1000
        assert counts.shots == 1000

    def test_deterministic_distribution(self, rng):
        counts = sample_distribution(np.array([0.0, 1.0]), 100, rng)
        assert counts["1"] == 100

    def test_zero_shots(self, rng):
        counts = sample_distribution(np.array([0.5, 0.5]), 0, rng)
        assert counts.shots == 0
        assert len(counts) == 0

    def test_negative_probabilities_rejected(self, rng):
        with pytest.raises(ValueError):
            sample_distribution(np.array([-0.5, 1.5]), 10, rng)

    def test_zero_sum_rejected(self, rng):
        with pytest.raises(ValueError):
            sample_distribution(np.zeros(4), 10, rng)

    def test_renormalizes_slightly_off_distributions(self, rng):
        counts = sample_distribution(np.array([0.5, 0.5000001]), 100, rng)
        assert sum(counts.values()) == 100

    def test_bitstring_width(self, rng):
        counts = sample_distribution(np.array([0.25] * 4), 100, rng)
        assert all(len(k) == 2 for k in counts)

    def test_mismatched_num_bits_rejected(self, rng):
        with pytest.raises(ValueError):
            sample_distribution(np.array([0.5, 0.5]), 10, rng, num_bits=3)

    def test_law_of_large_numbers(self, rng):
        probs = np.array([0.1, 0.2, 0.3, 0.4])
        counts = sample_distribution(probs, 200_000, rng)
        empirical = counts.to_array()
        assert np.allclose(empirical, probs, atol=0.01)


class TestStatevectorSampling:
    def test_ghz_sampling_only_extremes(self, rng):
        sv = Statevector(3)
        sv.apply_gate("h", [0])
        sv.apply_gate("cx", [0, 1])
        sv.apply_gate("cx", [1, 2])
        counts = sample_statevector(sv, 500, rng)
        assert set(counts.keys()) <= {"000", "111"}

    def test_subset_sampling(self, rng):
        sv = Statevector(2)
        sv.apply_gate("x", [0])
        counts = sample_statevector(sv, 100, rng, qubits=[0])
        assert counts["1"] == 100

    def test_sample_circuit_ideal_respects_measured_qubits(self, rng):
        counts = sample_circuit_ideal(ghz_state(4), 200, rng)
        assert all(len(k) == 4 for k in counts)
        assert set(counts.keys()) <= {"0000", "1111"}


class TestReadoutConfusion:
    def test_columns_are_stochastic(self):
        conf = readout_confusion_matrix(0.03, 0.07)
        assert np.allclose(conf.sum(axis=0), [1.0, 1.0])

    def test_perfect_readout_is_identity(self):
        assert np.allclose(readout_confusion_matrix(0.0, 0.0), np.eye(2))

    def test_probabilities_validated(self):
        with pytest.raises(ValueError):
            readout_confusion_matrix(1.2, 0.0)

    def test_asymmetric_entries(self):
        conf = readout_confusion_matrix(0.1, 0.2)
        assert conf[1, 0] == pytest.approx(0.1)  # read 1 given true 0
        assert conf[0, 1] == pytest.approx(0.2)  # read 0 given true 1


class TestReadoutError:
    def test_identity_confusion_is_noop(self):
        probs = np.array([0.25, 0.25, 0.25, 0.25])
        matrices = [readout_confusion_matrix(0.0, 0.0)] * 2
        assert np.allclose(apply_readout_error(probs, matrices), probs)

    def test_full_flip_swaps_outcomes(self):
        probs = np.array([1.0, 0.0])
        flipped = apply_readout_error(probs, [readout_confusion_matrix(1.0, 1.0)])
        assert flipped[1] == pytest.approx(1.0)

    def test_output_is_normalized(self):
        probs = np.array([0.7, 0.1, 0.1, 0.1])
        matrices = [readout_confusion_matrix(0.05, 0.1)] * 2
        out = apply_readout_error(probs, matrices)
        assert out.sum() == pytest.approx(1.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            apply_readout_error(np.array([0.5, 0.5]), [readout_confusion_matrix(0, 0)] * 2)


class TestDistributionToCounts:
    def test_exact_total(self):
        counts = distribution_to_counts(np.array([0.3, 0.3, 0.4]+ [0.0]*5) / 1.0, 1000)
        assert sum(counts.values()) == 1000

    def test_rounding_goes_to_largest_remainders(self):
        counts = distribution_to_counts(np.array([1.0, 1.0, 1.0, 0.0]) / 3.0, 10)
        assert sum(counts.values()) == 10
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_zero_distribution_rejected(self):
        with pytest.raises(ValueError):
            distribution_to_counts(np.zeros(4), 10)
