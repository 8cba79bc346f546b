"""One float-reduction order for every sum that reaches a pinned value.

The order is **left to right from ``+0.0``**, as builtin ``sum`` added floats
on Python 3.10/3.11, where the hex goldens were recorded.  Builtin ``sum``
compensates from 3.12 on and ``np.sum`` adds pairwise, so a float sum on the
pinned path goes through here instead
(``tests/test_reduction/test_reduction_lint.py`` keeps it that way).  This
module imports no NumPy: the scalar form runs on any Python.
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["ordered_sum", "ordered_row_sums"]


def ordered_sum(values: Iterable[float]) -> float:
    """``((0.0 + v0) + v1) + ...`` in iteration order; ``0.0`` if empty."""
    total = 0.0
    for value in values:
        total += value
    return total


def ordered_row_sums(rows):
    """:func:`ordered_sum` of every row (last axis) of a non-empty float array.

    ``cumsum`` is NumPy's sequential ``np.add.accumulate``, which starts from
    the first term instead of ``+0.0``: the two differ only by the sign of an
    all-``-0.0`` prefix, which the final ``+ 0.0`` removes.  Trailing ``+0.0``
    padding leaves every row's sum unchanged, so rows of different lengths
    can share one zero-padded array.
    """
    return rows.cumsum(axis=-1)[..., -1] + 0.0
