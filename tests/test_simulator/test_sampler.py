"""Tests for shot sampling and readout-error application."""

import numpy as np
import pytest

from repro.circuit import QuantumCircuit, ghz_state
from repro.simulator.mixing import NoiseRecord, noisy_probabilities_batch
from repro.simulator.result import Counts
from repro.simulator.sampler import (
    apply_readout_error_batch,
    sample_circuit_ideal,
    sample_distribution,
    sample_distribution_batch,
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
        state = rng.bit_generator.state
        counts = sample_distribution(np.array([0.5, 0.5]), 0, rng)
        assert counts.shots == 0
        assert len(counts) == 0
        assert counts == Counts({}, shots=0) and counts.num_bits == 0
        batch = sample_distribution_batch(np.full((3, 4), 0.25), 0, rng, num_bits=2)
        assert all(c == Counts({}, shots=0) and c.num_bits == 0 for c in batch)
        assert rng.bit_generator.state == state  # zero shots consume no bits

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


def confusion(p01, p10):
    return np.array([[1 - p01, p10], [p01, 1 - p10]])


def contracted(probs, matrices):
    """One vector through the readout contraction, as a one-row batch."""
    (row,) = apply_readout_error_batch(np.asarray(probs, dtype=float)[None], matrices)
    return row


def read_out(circuit, pairs):
    """``circuit``'s noise-free distribution read out with ``(p01, p10)`` per bit."""
    readout = np.array([pairs], dtype=float)
    (row,) = noisy_probabilities_batch(
        [circuit], NoiseRecord(np.ones(1), np.zeros(1), readout, np.zeros(1, bool))
    )
    return row


ZERO = QuantumCircuit(1).measure_all()
ONE = QuantumCircuit(1).x(0).measure_all()


class TestReadoutConfusion:
    """The mixer reads bit ``b`` through ``[[1 - p01, p10], [p01, 1 - p10]]``."""

    def test_columns_are_stochastic(self):
        # An even superposition keeps the ratio of the two outcomes: a column
        # that does not sum to 1 would shift it even after renormalization.
        row = read_out(QuantumCircuit(1).h(0).measure_all(), [(0.03, 0.07)])
        assert row == pytest.approx([0.5 * (0.97 + 0.07), 0.5 * (0.03 + 0.93)], abs=1e-15)

    def test_perfect_readout_is_identity(self):
        exact = NoiseRecord(np.ones(1), np.zeros(1), np.zeros((1, 2, 2)), np.ones(1, bool))
        (ideal,) = noisy_probabilities_batch([ghz_state(2)], exact)
        assert np.allclose(read_out(ghz_state(2), [(0.0, 0.0)] * 2), ideal)

    def test_probabilities_validated(self):
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            read_out(ZERO, [(1.2, 0.0)])

    def test_asymmetric_entries(self):
        assert read_out(ZERO, [(0.1, 0.2)])[1] == pytest.approx(0.1)  # read 1 given true 0
        assert read_out(ONE, [(0.1, 0.2)])[0] == pytest.approx(0.2)  # read 0 given true 1


class TestReadoutError:
    def test_identity_confusion_is_noop(self):
        probs = np.array([0.25, 0.25, 0.25, 0.25])
        matrices = [confusion(0.0, 0.0)] * 2
        assert np.allclose(contracted(probs, matrices), probs)

    def test_full_flip_swaps_outcomes(self):
        probs = np.array([1.0, 0.0])
        flipped = contracted(probs, [confusion(1.0, 1.0)])
        assert flipped[1] == pytest.approx(1.0)

    def test_output_is_normalized(self):
        probs = np.array([0.7, 0.1, 0.1, 0.1])
        matrices = [confusion(0.05, 0.1)] * 2
        out = contracted(probs, matrices)
        assert out.sum() == pytest.approx(1.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            contracted(np.array([0.5, 0.5]), [confusion(0, 0)] * 2)

