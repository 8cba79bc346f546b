"""Differential test: array counts decode vs the retained per-outcome loop.

``MeasurementGroup.expectation_from_counts`` decodes sampler-built ``Counts``
from their hit arrays (one gather, one sequential accumulate) and everything
else through the dict loop.  The two must agree on every bit — the EQC
goldens record energies in hex — for any group and any sparse histogram.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hamiltonian import grouping
from repro.hamiltonian.grouping import MeasurementGroup
from repro.hamiltonian.pauli import PauliString
from repro.simulator.result import Counts
from repro.simulator.sampler import sample_distribution


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
        coefficient = draw(
            st.one_of(
                st.just(0.0),
                st.just(-0.0),
                st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
            )
        )
        terms.append((label, coefficient))
    return MeasurementGroup(
        terms=tuple(PauliString(label, c) for label, c in terms), basis=basis
    )


@st.composite
def group_and_draws(draw):
    group = draw(groups())
    dim = 1 << group.num_qubits
    shape = draw(st.sampled_from(["sparse", "single", "all", "empty"]))
    if shape == "empty":
        row = np.zeros(dim, dtype=np.int64)
    elif shape == "single":
        row = np.zeros(dim, dtype=np.int64)
        row[draw(st.integers(0, dim - 1))] = draw(st.integers(1, 10_000))
    elif shape == "all":
        row = np.asarray(
            draw(st.lists(st.integers(1, 5_000), min_size=dim, max_size=dim)),
            dtype=np.int64,
        )
    else:
        row = np.asarray(
            draw(st.lists(st.integers(0, 3), min_size=dim, max_size=dim)),
            dtype=np.int64,
        ) * draw(st.integers(1, 3_000))
    return group, row


class TestArrayDecodeMatchesLoop:
    @given(case=group_and_draws())
    @settings(max_examples=300, deadline=None)
    def test_bit_identical(self, case):
        group, row = case
        # Exactly what a sampler builds from one multinomial draw vector.
        counts = Counts._from_draws(row, group.num_qubits, int(row.sum()))
        assert counts.hits is not None
        as_dict = dict(counts)
        loop = group._expectation_from_mapping(as_dict)
        assert group.expectation_from_counts(counts).hex() == float(loop).hex()
        # Plain mappings (no hit arrays) still work and take the loop.
        assert float(group.expectation_from_counts(as_dict)).hex() == float(loop).hex()
        assert (
            float(group.expectation_from_counts(Counts(as_dict))).hex()
            == float(loop).hex()
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
