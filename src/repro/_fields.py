"""One rule for what a valid numeric setting is, and one way to refuse it.

Configuration constructors state their numeric constraints through
:func:`require`.  A refusal names the field first and its owner last, e.g.
``shots must be an integer >= 1 (got nan; EQCConfig)``.  Rules relating two
fields stay beside the calls in the owning constructor.
"""

from __future__ import annotations

import math
from numbers import Real

__all__ = ["require"]


def require(owner, name: str, value, *, low=None, high=None,
            open_low: bool = False, open_high: bool = False, integer: bool = False):
    """Return ``value`` if it is a finite real in range, else raise ``ValueError``.

    ``owner`` is the object being built or a label for it.  ``low`` and
    ``high`` are inclusive unless ``open_low``/``open_high`` is set, and
    ``integer`` demands a whole number.  NaN, ±inf and non-numbers always
    fail; NumPy scalars pass like Python numbers.
    """
    if isinstance(value, Real) and math.isfinite(value):
        if (
            (not integer or float(value).is_integer())
            and (low is None or (value > low if open_low else value >= low))
            and (high is None or (value < high if open_high else value <= high))
        ):
            return value
    words = ["an integer" if integer else "finite"]
    if low is not None and high is not None:
        words.append(f"within {'[('[open_low]}{low:g}, {high:g}{'])'[open_high]}")
    elif low is not None:
        words.append(f"{'>' if open_low else '>='} {low:g}")
    elif high is not None:
        words.append(f"{'<' if open_high else '<='} {high:g}")
    label = owner if isinstance(owner, str) else type(owner).__name__
    rule = (" " if integer else " and ").join(words)
    raise ValueError(f"{name} must be {rule} (got {value}; {label})")
