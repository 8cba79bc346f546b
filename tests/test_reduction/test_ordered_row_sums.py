"""The row form of the one float-reduction order.

``ordered_row_sums`` must give, row for row, the bytes of the scalar
``ordered_sum`` (left to right from ``+0.0``) on arrays of any rank, keep
them under trailing zero padding (the wave pass pads narrower calibration
tables), and disagree with NumPy's pairwise ``np.sum`` where that rounds
differently.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reduction import ordered_row_sums, ordered_sum

terms = st.floats(min_value=-1e300, max_value=1e300) | st.sampled_from([0.0, -0.0])


def scalar_sums(rows):
    return np.array([ordered_sum(row) for row in rows.reshape(-1, rows.shape[-1]).tolist()])


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(1, 24), st.data())
def test_rows_sum_as_the_scalar_form(num_rows, width, data):
    size = num_rows * width
    rows = np.array(data.draw(st.lists(terms, min_size=size, max_size=size)))
    rows = rows.reshape(num_rows, width)
    assert ordered_row_sums(rows).tobytes() == scalar_sums(rows).tobytes()


def test_any_leading_shape_and_trailing_zeros():
    rows = np.random.default_rng(3).uniform(0.0, 1e-3, size=(5, 7, 65)) * 10.0 ** np.arange(65)
    sums = ordered_row_sums(rows)
    assert sums.shape == (5, 7)
    assert sums.tobytes() == scalar_sums(rows).tobytes()
    padded = np.concatenate([rows, np.zeros((5, 7, 30))], axis=-1)
    assert ordered_row_sums(padded).tobytes() == sums.tobytes()


def test_the_order_is_not_pairwise():
    row = np.array([[1e16] + [1.0] * 16 + [-1e16]])
    assert ordered_row_sums(row)[0] == 0.0 == ordered_sum(row[0].tolist())
    assert np.sum(row, axis=-1)[0] == 16.0  # pairwise keeps the ones together


def test_a_row_of_negative_zeros_sums_to_positive_zero():
    sums = ordered_row_sums(np.array([[-0.0, -0.0], [-0.0, 1.5]]))
    assert np.signbit(sums).tolist() == [False, False]
    assert sums.tolist() == [0.0, 1.5]
