"""Differential test: the draw-matrix decoder vs the hits gather and the loop.

``EnergyEstimator.energy_from_counts`` decodes a point's groups in one call
when their ``Counts`` are consecutive rows of one sampler draw matrix, and
``MeasurementGroup.expectation_from_counts`` decodes one such row; plain
mappings take the per-outcome dict loop.  Every path must agree with the
per-``Counts`` hits gather the library used before
(``tests/_reference/counts_decode.py``) on every bit — the EQC goldens record
energies in hex — for any grouping and any histogram: zero-count outcomes,
zero-shot rows, ``shots`` above the drawn sum.
"""

import numpy as np
import pytest
from _reference import counts_decode as reference
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import QuantumCircuit
from repro.hamiltonian import grouping
from repro.hamiltonian.expectation import EnergyEstimator, expectation_from_group_counts
from repro.hamiltonian.grouping import MeasurementGroup
from repro.hamiltonian.pauli import PauliString, PauliSum
from repro.simulator.result import Counts
from repro.simulator.sampler import sample_distribution

coefficients = st.one_of(
    st.just(0.0),
    st.just(-0.0),
    st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
)


def _row(draw, dim):
    """One draw row: empty, a single outcome, every outcome, or sparse."""
    shape = draw(st.sampled_from(["sparse", "single", "all", "empty"]))
    row = np.zeros(dim, dtype=np.int64)
    if shape == "single":
        row[draw(st.integers(0, dim - 1))] = draw(st.integers(1, 10_000))
    elif shape == "all":
        row[:] = draw(st.lists(st.integers(1, 5_000), min_size=dim, max_size=dim))
    elif shape == "sparse":
        row[:] = draw(st.lists(st.integers(0, 3), min_size=dim, max_size=dim))
        row *= draw(st.integers(1, 3_000))
    return row


@st.composite
def groups(draw):
    """A qubit-wise commuting group: identity terms, negative/zero weights."""
    n = draw(st.integers(min_value=1, max_value=6))
    basis = draw(st.text(alphabet="XYZ", min_size=n, max_size=n))
    num_terms = draw(st.integers(min_value=1, max_value=5))
    terms = []
    for _ in range(num_terms):
        mask = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        label = "".join(b if keep else "I" for b, keep in zip(basis, mask))
        terms.append((label, draw(coefficients)))
    return MeasurementGroup(
        terms=tuple(PauliString(label, c) for label, c in terms), basis=basis
    )


@st.composite
def group_and_draws(draw):
    group = draw(groups())
    return group, _row(draw, 1 << group.num_qubits)


@st.composite
def estimator_and_rows(draw):
    """An estimator over 1-6 qubits whose groups hold unequal term counts, and
    a draw matrix holding one row per group from row ``start`` on."""
    n = draw(st.integers(min_value=1, max_value=6))
    labels = st.text(alphabet="IXYZ", min_size=n, max_size=n)
    terms = draw(st.lists(st.tuples(labels, coefficients), min_size=1, max_size=8))
    hamiltonian = PauliSum(PauliString(label, c) for label, c in terms)
    estimator = EnergyEstimator(QuantumCircuit(n), hamiltonian)
    before, after = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    rows = before + estimator.num_groups + after
    draws = np.stack([_row(draw, 1 << n) for _ in range(rows)])
    shots = int(draws.sum(axis=1).max()) + draw(st.sampled_from([0, 0, 1, 977]))
    return estimator, draws, shots, before


class TestArrayDecodeMatchesLoop:
    @given(case=group_and_draws())
    @settings(max_examples=300, deadline=None)
    def test_bit_identical(self, case):
        group, row = case
        # Exactly what a sampler builds from a one-row multinomial draw.
        (counts,) = Counts._rows(
            row[None], group.num_qubits, int(row.sum()), range(1), {}
        )
        as_dict = dict(counts)
        loop = group._expectation_from_mapping(as_dict)
        assert group.expectation_from_counts(counts).hex() == float(loop).hex()
        assert reference.expectation_from_hits(group, counts).hex() == float(loop).hex()
        # Plain mappings (no hit arrays) still work and take the loop.
        assert float(group.expectation_from_counts(as_dict)).hex() == float(loop).hex()
        assert (
            float(group.expectation_from_counts(Counts(as_dict))).hex()
            == float(loop).hex()
        )

    @given(case=estimator_and_rows())
    @settings(max_examples=200, deadline=None)
    def test_estimator_rows_match_reference_and_loop(self, case):
        estimator, draws, shots, start = case
        groups = estimator.groups
        rows = Counts._rows(
            draws, estimator.hamiltonian.num_qubits, shots, range(len(draws)), {}
        )
        counts = rows[start : start + len(groups)]
        assert grouping._tabled_draws(counts, len(groups[0].basis)) is not None  # one call
        expected = reference.energy_from_hits(groups, counts).hex()
        assert estimator.energy_from_counts(counts).hex() == expected
        mappings = [dict(histogram) for histogram in counts]
        assert expectation_from_group_counts(groups, mappings).hex() == expected
        assert estimator.energy_from_counts(mappings).hex() == expected
        for group, histogram in zip(groups, counts):
            assert (
                group.expectation_from_counts(histogram).hex()
                == reference.expectation_from_hits(group, histogram).hex()
            )
        if len(groups) > 1:  # not consecutive rows: each group decodes alone
            shuffled = [*counts[1:], counts[0]]
            assert grouping._tabled_draws(shuffled, len(groups[0].basis)) is None
            assert (
                estimator.energy_from_counts(shuffled).hex()
                == reference.energy_from_hits(groups, shuffled).hex()
            )

    def test_sampled_counts_carry_hits_in_mapping_order(self, rng):
        probs = rng.dirichlet(np.ones(32))
        counts = sample_distribution(probs, 500, rng, num_bits=5)
        indices, hit_counts = counts.hits
        assert [int(key, 2) for key in counts] == indices.tolist()
        assert list(counts.values()) == hit_counts.tolist()

    def test_width_mismatch_is_a_typed_error_on_both_paths(self, rng):
        group = MeasurementGroup(terms=(PauliString("ZZI"),), basis="ZZI")
        counts = sample_distribution(np.full(4, 0.25), 64, rng, num_bits=2)
        with pytest.raises(ValueError, match="width"):
            group.expectation_from_counts(counts)
        with pytest.raises(ValueError, match="width"):
            group.expectation_from_counts(dict(counts))

    def test_wide_register_falls_back_to_the_loop(self, rng, monkeypatch):
        group = MeasurementGroup(
            terms=(PauliString("ZIZ", 0.5), PauliString("IZI", -1.25)), basis="ZZZ"
        )
        counts = sample_distribution(rng.dirichlet(np.ones(8)), 300, rng, num_bits=3)
        expected = group.expectation_from_counts(counts)
        monkeypatch.setattr(grouping, "_MAX_TABLE_QUBITS", 2)
        assert group.expectation_from_counts(counts).hex() == expected.hex()
