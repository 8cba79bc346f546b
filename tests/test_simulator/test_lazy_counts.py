"""A sampler-built ``Counts`` is a row view labelled only when read as a mapping.

``Counts._rows`` makes one histogram per row of a multinomial draw matrix;
each keeps the matrix and its row index, computes its ``(indices, counts)``
hits (``Counts.hits``) from the row on first use and labels its outcomes
only when read as a mapping.  The energy path reads only the draw rows and
``num_bits``.  Every other reading must be indistinguishable from a
histogram built eagerly from the same labels, whichever row of the matrix it
views: widths 1-14 (past the precomputed label table's 12 bits) and zero
shots.
"""

import numpy as np
import pytest

from repro.simulator.result import _MAX_CACHED_LABEL_BITS, Counts
from repro.simulator.sampler import sample_distribution, sample_distribution_batch

WIDTHS = range(1, _MAX_CACHED_LABEL_BITS + 3)  # 1-14: past the label table
SHOTS = [0, 1, 257]


def drawn(num_bits, shots, seed=0, rows=(1, 0)):
    """A multinomial draw over ``2**num_bits`` outcomes as a row-view factory
    (row ``rows[1]`` of a ``rows[0]``-row draw matrix) and an eager Counts."""
    height, row = rows
    rng = np.random.default_rng((num_bits, shots, seed))
    probs = rng.dirichlet(np.full(1 << num_bits, 0.3), size=height)
    draws = rng.multinomial(shots, probs)
    (hits,) = np.nonzero(draws[row])

    def lazy():
        return Counts._rows(draws, num_bits, shots, range(height), {})[row]

    eager = Counts(
        {format(int(i), f"0{num_bits}b"): int(draws[row, i]) for i in hits}, shots=shots
    )
    return lazy, eager


@pytest.mark.parametrize("shots", SHOTS)
@pytest.mark.parametrize("num_bits", WIDTHS)
def test_lazy_counts_read_like_eager_counts(num_bits, shots):
    reads_like_eager(num_bits, shots, rows=(1, 0))


@pytest.mark.parametrize("shots", SHOTS)
@pytest.mark.parametrize("num_bits", WIDTHS)
def test_row_view_counts_read_like_eager_counts(num_bits, shots):
    """The middle row of a three-row draw matrix reads like its eager twin."""
    reads_like_eager(num_bits, shots, rows=(3, 1))


def reads_like_eager(num_bits, shots, rows):
    lazy, eager = drawn(num_bits, shots, rows=rows)
    fresh = lazy()
    assert fresh.num_bits == eager.num_bits == (num_bits if shots else 0)
    assert fresh.shots == eager.shots
    # num_bits and shots computed no hits and built no labels
    assert "_data" not in vars(fresh) and "hits" not in vars(fresh)

    assert lazy() == eager and eager == lazy() and lazy() == dict(eager)
    assert list(lazy()) == list(eager)
    assert list(lazy().items()) == list(eager.items())
    assert len(lazy()) == len(eager)
    assert repr(lazy()) == repr(eager)
    absent = "1" * num_bits if "1" * num_bits not in eager else "0" * num_bits
    for key in [*list(eager)[:3], absent]:
        assert lazy().probability(key) == eager.probability(key)
    assert list(lazy().probabilities().items()) == list(eager.probabilities().items())
    assert lazy().to_array().tobytes() == eager.to_array().tobytes()
    if shots:
        assert lazy().most_frequent() == eager.most_frequent()
    else:
        with pytest.raises(ValueError):
            lazy().most_frequent()

    other_lazy, other = drawn(num_bits, 100, seed=1, rows=rows)
    for left, right in [(lazy(), other), (eager, other_lazy()), (lazy(), other_lazy())]:
        merged = left.merge(right)
        assert merged == eager.merge(other)
        assert list(merged.items()) == list(eager.merge(other).items())
        assert merged.shots == eager.merge(other).shots


@pytest.mark.parametrize("num_bits", [3, 13])
def test_samplers_return_lazy_counts_carrying_their_hits(num_bits):
    probs = np.random.default_rng(num_bits).dirichlet(np.ones(1 << num_bits), size=3)
    batch = sample_distribution_batch(probs, 500, np.random.default_rng(2), num_bits)
    single = sample_distribution(probs[0], 500, np.random.default_rng(2), num_bits)
    for row, counts in enumerate([*batch, single]):
        assert "_data" not in vars(counts) and counts.num_bits == num_bits
        assert counts._row == (row if row < len(batch) else 0)
        indices, hit_counts = counts.hits
        assert indices.dtype == np.intp and hit_counts.dtype == np.int64
        assert list(counts.values()) == hit_counts.tolist()
        assert [int(key, 2) for key in counts] == indices.tolist()
    assert dict(single) == dict(batch[0])
