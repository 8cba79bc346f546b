"""A NumPy ``Generator``'s stream position as one flat row of integers.

Every stream the simulation draws from is a ``default_rng`` (PCG64), whose
position is ``[state, inc, has_uint32, uinteger]`` — the first two are 128-bit
words.  Checkpoints store streams as these rows, and a generator restored from
one continues with exactly the draws the original would have made.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

__all__ = ["generator_state", "restore_generator"]


def generator_state(rng: "np.random.Generator") -> list[int]:
    """The stream position of one PCG64 ``Generator``."""
    state = rng.bit_generator.state
    words = state["state"]
    return [words["state"], words["inc"], state["has_uint32"], state["uinteger"]]


def restore_generator(rng: "np.random.Generator", row: Sequence[int]) -> None:
    """Put a PCG64 ``Generator`` at a :func:`generator_state` position (NumPy
    refuses the state for a generator of another kind)."""
    state, inc, has_uint32, uinteger = row
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": has_uint32,
        "uinteger": uinteger,
    }
