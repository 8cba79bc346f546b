"""Shot sampling from probability distributions and statevectors."""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from ..circuit.circuit import QuantumCircuit
from .result import Counts
from .statevector import Statevector, simulate_statevector

__all__ = [
    "sample_distribution",
    "sample_distribution_batch",
    "sample_statevector",
    "sample_circuit_ideal",
    "readout_confusion_matrix",
    "apply_readout_error",
    "apply_readout_error_batch",
]

#: Widths for which the full bitstring-label table is precomputed; wider
#: registers format labels on demand (the table would hold 2**n strings).
_MAX_CACHED_LABEL_BITS = 12


@lru_cache(maxsize=_MAX_CACHED_LABEL_BITS + 1)
def _bitstring_labels(num_bits: int) -> tuple[str, ...]:
    """All ``2**num_bits`` outcome labels, built once per register width."""
    return tuple(format(index, f"0{num_bits}b") for index in range(1 << num_bits))


def _counts_from_draws(draws: np.ndarray, num_bits: int, shots: int) -> Counts:
    """Sparse Counts from a multinomial draw vector (only hit outcomes).

    The hit index/count arrays ride along on the Counts (``Counts.hits``).
    """
    (hits,) = np.nonzero(draws)
    hit_counts = draws[hits]
    pairs = zip(hits.tolist(), hit_counts.tolist())
    if num_bits <= _MAX_CACHED_LABEL_BITS:
        labels = _bitstring_labels(num_bits)
        data = {labels[index]: count for index, count in pairs}
    else:
        data = {format(index, f"0{num_bits}b"): count for index, count in pairs}
    return Counts._from_clean(data, shots, hits=(hits, hit_counts))


def sample_distribution(
    probabilities: np.ndarray,
    shots: int,
    rng: np.random.Generator,
    num_bits: int | None = None,
) -> Counts:
    """Draw ``shots`` multinomial samples from a probability vector.

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
    if np.any(probs < -1e-9):
        raise ValueError("probabilities must be non-negative")
    probs = np.clip(probs, 0.0, None)
    total = probs.sum()
    if total <= 0:
        raise ValueError("probability vector sums to zero")
    probs = probs / total
    if shots < 0:
        raise ValueError("shots must be non-negative")
    if num_bits is None:
        num_bits = max(1, int(np.round(np.log2(probs.size))))
    if probs.size != (1 << num_bits):
        raise ValueError(
            f"probability vector of length {probs.size} does not match "
            f"{num_bits} bits"
        )
    if shots == 0:
        return Counts({}, shots=0)
    draws = rng.multinomial(shots, probs)
    # Shots are sparse over the 2**n outcomes for n >= 10: only walk the hit
    # indices instead of enumerating the whole vector.
    return _counts_from_draws(draws, num_bits, shots)


def sample_distribution_batch(
    probabilities: np.ndarray,
    shots: int,
    rng: np.random.Generator,
    num_bits: int,
) -> list[Counts]:
    """Draw shots for a whole stack of distributions in one multinomial call.

    NumPy's ``Generator.multinomial`` consumes the bit stream row by row in
    order, so the draws — and the generator's final state — are **identical**
    to calling :func:`sample_distribution` once per row with the same RNG
    (the equivalence is pinned by the test suite).  The per-row validation
    and renormalization are replicated exactly; only the Python call
    overhead is batched away.

    Args:
        probabilities: ``(batch, 2**num_bits)`` stack of distributions.
        shots: shots per row (every row draws the same number).
        rng: the shared RNG stream, consumed in row order.
        num_bits: width of the output bitstrings.
    """
    probs = np.asarray(probabilities, dtype=float)
    if probs.ndim != 2:
        raise ValueError("probabilities must be a (batch, 2**n) matrix")
    if np.any(probs < -1e-9):
        raise ValueError("probabilities must be non-negative")
    probs = np.clip(probs, 0.0, None)
    totals = probs.sum(axis=1)
    if np.any(totals <= 0):
        raise ValueError("probability vector sums to zero")
    probs = probs / totals[:, None]
    if shots < 0:
        raise ValueError("shots must be non-negative")
    if probs.shape[1] != (1 << num_bits):
        raise ValueError(
            f"probability vectors of length {probs.shape[1]} do not match "
            f"{num_bits} bits"
        )
    if shots == 0:
        return [Counts({}, shots=0) for _ in range(probs.shape[0])]
    draws = rng.multinomial(shots, probs)
    return [_counts_from_draws(row, num_bits, shots) for row in draws]


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


def readout_confusion_matrix(p01: float, p10: float) -> np.ndarray:
    """Per-qubit readout confusion matrix.

    ``p01`` is the probability of reading 1 when the state was 0 and ``p10``
    the probability of reading 0 when the state was 1.  The returned 2x2
    matrix ``C`` maps true probabilities to observed probabilities via
    ``observed = C @ true`` with rows indexed by the observed bit.

    Matrices are memoized per ``(p01, p10)`` — the mixing path asks for one
    per measured bit of every circuit whose readout it confuses row-wise —
    and returned as **shared read-only** arrays; copy before mutating.
    """
    return _cached_confusion_matrix(_check_probability(p01), _check_probability(p10))


@lru_cache(maxsize=4096)
def _cached_confusion_matrix(p01: float, p10: float) -> np.ndarray:
    matrix = np.array([[1 - p01, p10], [p01, 1 - p10]], dtype=float)
    matrix.flags.writeable = False
    return matrix


def _check_probability(p: float) -> float:
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} outside [0, 1]")
    return p


def apply_readout_error(
    probabilities: np.ndarray,
    confusion_matrices: Sequence[np.ndarray],
) -> np.ndarray:
    """Push a probability vector through per-qubit readout confusion matrices.

    Args:
        probabilities: length ``2**n`` vector over true outcomes.
        confusion_matrices: one 2x2 column-stochastic matrix per measured bit,
            ordered to match the bitstring convention (bit 0 first / most
            significant).

    Returns:
        The observed-outcome probability vector, same length.
    """
    probs = np.asarray(probabilities, dtype=float)
    n = len(confusion_matrices)
    if probs.size != (1 << n):
        raise ValueError("probability vector length does not match confusion matrices")
    tensor = probs.reshape([2] * n) if n else probs
    for bit, conf in enumerate(confusion_matrices):
        conf = np.asarray(conf, dtype=float)
        if conf.shape != (2, 2):
            raise ValueError("each confusion matrix must be 2x2")
        tensor = np.moveaxis(tensor, bit, 0)
        shape = tensor.shape
        tensor = conf @ tensor.reshape(2, -1)
        tensor = tensor.reshape(shape)
        tensor = np.moveaxis(tensor, 0, bit)
    out = tensor.reshape(-1)
    total = out.sum()
    return out / total if total > 0 else out


def apply_readout_error_batch(
    probabilities: np.ndarray,
    confusion_stacks: Sequence[np.ndarray],
) -> np.ndarray:
    """Push a stack of probability vectors through per-circuit confusion matrices.

    The batched counterpart of :func:`apply_readout_error`: row ``b`` of the
    result equals ``apply_readout_error(probabilities[b], [stack[b] for stack
    in confusion_stacks])`` — the per-bit contraction performs the identical
    2-term sums, so the two agree bitwise.

    Args:
        probabilities: ``(batch, 2**n)`` array of true-outcome distributions.
        confusion_stacks: one ``(batch, 2, 2)`` array per measured bit
            (bit 0 first / most significant), holding each circuit's own
            column-stochastic confusion matrix.  A plain ``(2, 2)`` matrix is
            broadcast over the batch.

    Returns:
        The ``(batch, 2**n)`` observed-outcome distributions, row-normalized.
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
    tensor = probs.reshape([batch] + [2] * n)
    for bit, stack in enumerate(confusion_stacks):
        stack = np.asarray(stack, dtype=float)
        if stack.shape == (2, 2):
            stack = np.broadcast_to(stack, (batch, 2, 2))
        if stack.shape != (batch, 2, 2):
            raise ValueError("each confusion stack must be (batch, 2, 2) or (2, 2)")
        tensor = np.moveaxis(tensor, bit + 1, 1)
        shape = tensor.shape
        # Stacked matmul runs the same 2-D GEMM per row apply_readout_error
        # runs per circuit, keeping the contraction bitwise identical.
        tensor = stack @ np.ascontiguousarray(tensor.reshape(batch, 2, -1))
        tensor = tensor.reshape(shape)
        tensor = np.moveaxis(tensor, 1, bit + 1)
    out = np.ascontiguousarray(tensor.reshape(batch, -1))
    totals = out.sum(axis=1)
    positive = totals > 0
    out[positive] /= totals[positive, None]
    return out

