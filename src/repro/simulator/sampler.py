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
    "checked_distributions",
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
    shots: int | Sequence[int],
    rng: np.random.Generator | Sequence[np.random.Generator],
    num_bits: int,
    blocks: Sequence[int] | None = None,
) -> list[Counts]:
    """Draw shots for a whole stack of distributions.

    The matrix is checked, clipped and renormalized once, row-wise
    (:func:`checked_distributions`), so every row has the bytes it has when
    checked alone; nothing is drawn unless every row passes.  Without
    ``blocks`` all rows draw ``shots`` from ``rng`` in one multinomial call.
    With ``blocks`` the matrix stacks independent jobs (a device wave): job
    ``j`` owns the next ``blocks[j]`` rows and draws them in one multinomial
    call of ``shots[j]`` from its own stream ``rng[j]``, jobs in order.
    NumPy's ``Generator.multinomial`` consumes the bit stream row by row, so
    the draws — and each stream's final state — are those of one call per
    row (the equivalence is pinned by the test suite).

    Each job's ``(rows, 2**num_bits)`` draw matrix is kept: every returned
    :class:`~repro.simulator.result.Counts` is a view of its row, so a job's
    consecutive rows decode to energies as one block.

    Args:
        probabilities: ``(batch, 2**num_bits)`` stack of distributions.
        shots: shots per row — one count, or one per block.
        rng: the stream the rows consume in order — one, or one per block.
        num_bits: width of the output bitstrings.
        blocks: row counts of the jobs stacked in ``probabilities``.

    Returns:
        One histogram per row, in row order.
    """
    probs = checked_distributions(probabilities, num_bits)
    if blocks is None:
        blocks, shots, rng = (len(probs),), (shots,), (rng,)
    if not (len(blocks) == len(shots) == len(rng) and sum(blocks) == len(probs)):
        raise ValueError(
            f"blocks {list(blocks)} must split {len(probs)} rows, with one "
            "shot count and one stream per block"
        )
    if min(shots) < 0:
        raise ValueError("shots must be non-negative")
    counts: list[Counts] = []
    stop = 0
    for size, count, stream in zip(blocks, shots, rng):
        # Zero shots draw zeros and leave the stream where it was.
        draws = stream.multinomial(count, probs[stop : stop + size])
        counts += Counts._rows(draws, num_bits, count)
        stop += size
    return counts


def checked_distributions(probabilities: np.ndarray, num_bits: int) -> np.ndarray:
    """A ``(batch, 2**num_bits)`` stack clipped at zero and renormalized row by row.

    This is the check :func:`sample_distribution_batch` runs on its matrix
    before it draws.  :func:`~repro.devices.qpu.resolve_batches` also runs it
    on every matrix of a resolve that needs several sampler calls, before
    the first call, so that no stream moves unless every row passes; those
    calls then check their own rows again.

    Raises:
        ValueError: naming the first row that is not finite (an entry or the
            row's sum), has an entry below ``-1e-9`` or sums to zero — or if
            the width is not ``2**num_bits``.
    """
    probs = np.asarray(probabilities, dtype=float)
    if probs.ndim != 2:
        raise ValueError("probabilities must be a (batch, 2**n) matrix")
    if probs.shape[1] != (1 << num_bits):
        raise ValueError(
            f"probability vectors of length {probs.shape[1]} do not match "
            f"{num_bits} bits"
        )
    clipped = np.clip(probs, 0.0, None)
    totals = clipped.sum(axis=1)
    # A NaN or +inf entry, or finite entries whose sum overflows, make the
    # row total NaN or inf; -inf clips to 0 but lies below -1e-9.
    if not ((totals > 0).all() and (totals < np.inf).all()) or (probs < -1e-9).any():
        finite = np.isfinite(probs).all(axis=1) & (totals < np.inf)
        negative = (probs < -1e-9).any(axis=1)
        row = int(np.flatnonzero(~finite | negative | ~(totals > 0))[0])
        problem = (
            "is not finite" if not finite[row]
            else "has a negative probability" if negative[row]
            else "sums to zero"
        )
        raise ValueError(f"probability row {row} {problem}")
    return clipped / totals[:, None]


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
