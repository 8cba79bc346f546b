"""Shot sampling from probability distributions and statevectors."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..circuit.circuit import QuantumCircuit
from .result import Counts
from .statevector import Statevector, _gather_scatter, simulate_statevector

__all__ = [
    "sample_distribution",
    "sample_distribution_batch",
    "sample_statevector",
    "sample_circuit_ideal",
    "apply_readout_error_batch",
]


def sample_distribution(
    probabilities: np.ndarray,
    shots: int,
    rng: np.random.Generator,
    num_bits: int | None = None,
) -> Counts:
    """Draw ``shots`` multinomial samples from a probability vector (the
    one-row case of :func:`sample_distribution_batch`).

    Args:
        probabilities: vector of length ``2**num_bits``; it is re-normalized
            defensively (floating-point drift is common after noise mixing).
        shots: number of samples.
        rng: NumPy random generator (callers own seeding policy).
        num_bits: width of the output bitstrings; inferred from the vector
            length when omitted.
    """
    probs = np.asarray(probabilities, dtype=float)
    if probs.ndim != 1:
        raise ValueError("probabilities must be a 1-D vector")
    if num_bits is None:
        num_bits = max(1, int(np.round(np.log2(max(probs.size, 1)))))
    return sample_distribution_batch(probs[None], shots, rng, num_bits)[0]


def sample_distribution_batch(
    probabilities: np.ndarray,
    shots: int,
    rng: np.random.Generator,
    num_bits: int,
) -> list[Counts]:
    """Draw shots for a whole stack of distributions in one multinomial call.

    NumPy's ``Generator.multinomial`` consumes the bit stream row by row in
    order, so the draws — and the generator's final state — are those of one
    call per row with the same RNG (the equivalence is pinned by the test
    suite).  Each row is validated, clipped and renormalized on its own.

    The ``(batch, 2**num_bits)`` draw matrix is kept: every returned
    :class:`~repro.simulator.result.Counts` is a view of its row, so a job's
    consecutive rows decode to energies as one block.

    Args:
        probabilities: ``(batch, 2**num_bits)`` stack of distributions.
        shots: shots per row (every row draws the same number).
        rng: the shared RNG stream, consumed in row order.
        num_bits: width of the output bitstrings.
    """
    probs = np.asarray(probabilities, dtype=float)
    if probs.ndim != 2:
        raise ValueError("probabilities must be a (batch, 2**n) matrix")
    if (probs < -1e-9).any():
        raise ValueError("probabilities must be non-negative")
    probs = np.clip(probs, 0.0, None)
    totals = probs.sum(axis=1)
    if (totals <= 0).any():
        raise ValueError("probability vector sums to zero")
    probs = probs / totals[:, None]
    if shots < 0:
        raise ValueError("shots must be non-negative")
    if probs.shape[1] != (1 << num_bits):
        raise ValueError(
            f"probability vectors of length {probs.shape[1]} do not match "
            f"{num_bits} bits"
        )
    # Zero shots draw zeros and leave the stream where it was.
    return Counts._rows(rng.multinomial(shots, probs), num_bits, shots)


def sample_statevector(
    state: Statevector,
    shots: int,
    rng: np.random.Generator,
    qubits: Sequence[int] | None = None,
) -> Counts:
    """Sample measurement outcomes of (a subset of) a statevector."""
    qubits = list(qubits) if qubits is not None else list(range(state.num_qubits))
    probs = state.probabilities(qubits)
    return sample_distribution(probs, shots, rng, num_bits=len(qubits))


def sample_circuit_ideal(
    circuit: QuantumCircuit,
    shots: int,
    rng: np.random.Generator,
) -> Counts:
    """Simulate a bound circuit ideally and sample its measured qubits."""
    state = simulate_statevector(circuit)
    measured = circuit.measured_qubits or tuple(range(circuit.num_qubits))
    return sample_statevector(state, shots, rng, qubits=measured)


def apply_readout_error_batch(
    probabilities: np.ndarray,
    confusion_stacks: Sequence[np.ndarray],
) -> np.ndarray:
    """Push a stack of probability vectors through per-circuit confusion matrices.

    Each bit is one stacked GEMM: the rows are gathered into a C-contiguous
    ``(batch, 2, 2**(n-1))`` block with that bit as the middle index
    (:func:`~repro.simulator.statevector._gather_scatter`, the gate path's
    memoized index pair), multiplied by the ``(batch, 2, 2)`` stack and
    scattered back.  The block is the operand an axis move plus reshape
    builds, so the result is byte-equal to that contraction.

    Args:
        probabilities: ``(batch, 2**n)`` array of true-outcome distributions.
        confusion_stacks: one ``(batch, 2, 2)`` array per measured bit
            (bit 0 first / most significant), holding each circuit's own
            column-stochastic confusion matrix ``[[1 - p01, p10], [p01, 1 -
            p10]]``.  A plain ``(2, 2)`` matrix is broadcast over the batch.

    Returns:
        The ``(batch, 2**n)`` observed-outcome distributions, row-normalized
        (C-contiguous).
    """
    probs = np.asarray(probabilities, dtype=float)
    if probs.ndim != 2:
        raise ValueError("probabilities must be a (batch, 2**n) matrix")
    batch = probs.shape[0]
    n = len(confusion_stacks)
    if probs.shape[1] != (1 << n):
        raise ValueError("probability width does not match confusion matrices")
    if n == 0:
        return probs.copy()
    out = probs
    for bit, stack in enumerate(confusion_stacks):
        stack = np.asarray(stack, dtype=float)
        if stack.shape == (2, 2):
            stack = np.broadcast_to(stack, (batch, 2, 2))
        if stack.shape != (batch, 2, 2):
            raise ValueError("each confusion stack must be (batch, 2, 2) or (2, 2)")
        gather, scatter, _ = _gather_scatter(n, (bit,))
        # ``take``, not ``out[:, gather]``: fancy indexing on axis 1 returns
        # an F-ordered array, whose row sums below round differently.
        block = out.take(gather, axis=1).reshape(batch, 2, -1)
        out = (stack @ block).reshape(batch, -1).take(scatter, axis=1)
    totals = out.sum(axis=1)
    positive = totals > 0
    out[positive] /= totals[positive, None]
    return out
