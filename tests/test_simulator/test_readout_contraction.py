"""Differential test: the readout contraction against the moveaxis loop.

``apply_readout_error_batch`` gathers each bit into a C-contiguous ``(batch,
2, 2**(n-1))`` block through the gate path's memoized index pair, multiplies
by the per-row confusion stack and scatters back.  ``tests/_reference/readout.py``
keeps the loop it replaced: move the bit's axis next to the batch axis,
copy, multiply, move it back.  The two must be byte-equal — result and row
normalization alike — and the result C-contiguous: an F-ordered block (what
``x[:, index]`` returns) makes the row sums round differently.
"""

import numpy as np
from _reference import readout as readout_reference
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator.sampler import apply_readout_error_batch


@st.composite
def contractions(draw):
    """1-40 rows of 1-6 bits; per bit a random ``(rows, 2, 2)`` confusion
    stack (entries anywhere in [0, 1], exact 0 and 1 included) or one shared
    ``(2, 2)`` matrix; sometimes all-zero rows, which stay unnormalized."""
    rows, bits = draw(st.integers(1, 40)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    probabilities = rng.dirichlet(np.ones(1 << bits), size=rows)
    if draw(st.booleans()):
        probabilities[rng.random(rows) < 0.3] = 0.0
    stacks = []
    for _ in range(bits):
        shape = (rows, 2) if draw(st.booleans()) else (2,)
        p = rng.uniform(0.0, 1.0, shape)
        p[rng.random(shape) < 0.1] = 0.0
        p[rng.random(shape) < 0.1] = 1.0
        p01, p10 = p[..., 0], p[..., 1]
        stacks.append(np.stack([np.stack([1 - p01, p10], -1), np.stack([p01, 1 - p10], -1)], -2))
    return probabilities, stacks


@settings(max_examples=200, deadline=None)
@given(contractions())
def test_contraction_is_byte_equal_to_the_moveaxis_loop(case):
    probabilities, stacks = case
    before = probabilities.tobytes()
    out = apply_readout_error_batch(probabilities, stacks)
    expected = readout_reference.apply_readout_error_batch(probabilities, stacks)
    assert out.flags.c_contiguous
    assert out.shape == expected.shape and out.tobytes() == expected.tobytes()
    assert probabilities.tobytes() == before
    # Row by row, the one-vector loop gives the same bytes.
    for row, probs in enumerate(probabilities):
        matrices = [stack if stack.ndim == 2 else stack[row] for stack in stacks]
        expected_row = readout_reference.apply_readout_error(probs, matrices)
        assert out[row].tobytes() == expected_row.tobytes()
