"""Readout confusion as the library first contracted it: moveaxis per bit.

``repro.simulator.sampler.apply_readout_error_batch`` gathers each bit into a
block through the gate path's memoized index pair instead; it must reproduce
``apply_readout_error_batch`` here byte for byte, and so, row by row, the
one-vector ``apply_readout_error`` (tests/test_simulator/test_readout_contraction.py,
tests/test_simulator/test_batched_noisy.py).
"""

from functools import lru_cache

import numpy as np


def readout_confusion_matrix(p01, p10):
    """``[[1 - p01, p10], [p01, 1 - p10]]``: observed = C @ true, rows indexed
    by the observed bit; memoized and read-only."""
    return _cached_confusion_matrix(_check_probability(p01), _check_probability(p10))


@lru_cache(maxsize=4096)
def _cached_confusion_matrix(p01, p10):
    matrix = np.array([[1 - p01, p10], [p01, 1 - p10]], dtype=float)
    matrix.flags.writeable = False
    return matrix


def _check_probability(p):
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} outside [0, 1]")
    return p


def apply_readout_error(probabilities, confusion_matrices):
    """One probability vector through one 2x2 matrix per bit (bit 0 first)."""
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


def apply_readout_error_batch(probabilities, confusion_stacks):
    """A ``(batch, 2**n)`` stack through one ``(batch, 2, 2)`` stack per bit."""
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
        tensor = stack @ np.ascontiguousarray(tensor.reshape(batch, 2, -1))
        tensor = tensor.reshape(shape)
        tensor = np.moveaxis(tensor, 1, bit + 1)
    out = np.ascontiguousarray(tensor.reshape(batch, -1))
    totals = out.sum(axis=1)
    positive = totals > 0
    out[positive] /= totals[positive, None]
    return out
