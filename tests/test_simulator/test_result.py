"""Tests for Counts and ExecutionResult."""

import re

import numpy as np
import pytest

from repro.simulator.result import Counts, ExecutionResult


class TestCounts:
    def test_mapping_interface(self):
        counts = Counts({"00": 60, "11": 40})
        assert counts["00"] == 60
        assert len(counts) == 2
        assert set(counts) == {"00", "11"}

    def test_shots_inferred(self):
        assert Counts({"0": 30, "1": 70}).shots == 100

    def test_explicit_shots_allows_lost_shots(self):
        counts = Counts({"0": 30}, shots=50)
        assert counts.shots == 50

    def test_shots_smaller_than_counts_rejected(self):
        with pytest.raises(ValueError):
            Counts({"0": 30}, shots=10)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            Counts({"0": -1})

    @pytest.mark.parametrize("count", [1.7, 0.5, 2.25, float("nan"), float("inf")])
    def test_fractional_count_rejected_naming_the_outcome(self, count):
        with pytest.raises(ValueError, match="'01'"):
            Counts({"01": count, "10": 2})

    def test_integral_counts_of_any_numeric_type_accepted(self):
        counts = Counts({"01": np.int64(3), "10": np.uint8(2), "11": 4.0})
        assert dict(counts) == {"01": 3, "10": 2, "11": 4}
        assert all(type(value) is int for value in counts.values())

    @pytest.mark.parametrize("label", ["0x", "0020", "1 0", "ab", "+1"])
    def test_non_binary_label_rejected(self, label):
        with pytest.raises(ValueError, match=re.escape(repr(label))):
            Counts({label: 3})

    def test_non_binary_label_rejected_even_with_zero_count(self):
        with pytest.raises(ValueError, match="'2'"):
            Counts({"1": 3, "2": 0})

    def test_non_binary_label_cannot_reach_the_energy(self):
        from repro import heisenberg_vqe_problem

        group = heisenberg_vqe_problem().estimator.groups[2]
        with pytest.raises(ValueError, match="0020"):
            group.expectation_from_counts(Counts({"0020": 4}))

    def test_zero_counts_dropped(self):
        counts = Counts({"0": 0, "1": 5})
        assert "0" not in counts

    def test_mixed_widths_rejected(self):
        with pytest.raises(ValueError):
            Counts({"0": 1, "00": 1})

    def test_probability(self):
        counts = Counts({"00": 25, "11": 75})
        assert counts.probability("11") == pytest.approx(0.75)
        assert counts.probability("01") == 0.0

    def test_probabilities_sum_to_one(self):
        counts = Counts({"00": 25, "01": 25, "10": 25, "11": 25})
        assert sum(counts.probabilities().values()) == pytest.approx(1.0)

    def test_to_array_indexing(self):
        counts = Counts({"10": 4, "01": 12})
        arr = counts.to_array()
        assert arr[0b10] == pytest.approx(0.25)
        assert arr[0b01] == pytest.approx(0.75)

    def test_most_frequent(self):
        assert Counts({"00": 10, "11": 90}).most_frequent() == "11"

    def test_most_frequent_tie_breaks_lexicographically(self):
        assert Counts({"11": 10, "00": 10}).most_frequent() == "00"

    def test_most_frequent_empty_rejected(self):
        with pytest.raises(ValueError):
            Counts({}).most_frequent()

    def test_merge(self):
        merged = Counts({"0": 10}).merge(Counts({"0": 5, "1": 5}))
        assert merged["0"] == 15
        assert merged.shots == 20

    def test_merge_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Counts({"0": 1}).merge(Counts({"00": 1}))

    def test_num_bits(self):
        assert Counts({"010": 3}).num_bits == 3
        assert Counts({}).num_bits == 0


class TestExecutionResult:
    def test_total_seconds(self):
        result = ExecutionResult(
            counts=Counts({"0": 1}),
            shots=1,
            duration_seconds=2.0,
            queue_seconds=3.0,
        )
        assert result.total_seconds == pytest.approx(5.0)

    def test_default_metadata_is_unique(self):
        a = ExecutionResult(counts=Counts({"0": 1}), shots=1)
        b = ExecutionResult(counts=Counts({"0": 1}), shots=1)
        a.metadata["x"] = 1
        assert "x" not in b.metadata
