"""Gradient-descent update rules: synchronous SGD and weighted ASGD.

The master node applies the asynchronous update rule of paper Eq. 12 with the
``PCorrect``-derived weight of Eq. 4:

    ``theta_i^{t+1} = theta_i^t - w * alpha * g_tau(theta_i^tau)``

where the gradient may have been computed from a stale parameter snapshot
(``tau <= t``), which is the defining property of ASGD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = ["AsgdRule", "ParameterVectorState", "clip_gradient", "initial_parameters"]


def clip_gradient(gradient: float, bound: float) -> float:
    """Clamp a scalar gradient to ``[-bound, bound]`` (0 disables clipping).

    The convergence proof in the paper's appendix assumes bounded gradients;
    loss functions built from bounded observables satisfy this automatically,
    but clipping guards against pathological noisy estimates.
    """
    if bound <= 0:
        return float(gradient)
    return float(max(-bound, min(bound, gradient)))


@dataclass(frozen=True)
class AsgdRule:
    """The (weighted) asynchronous SGD update rule.

    Attributes:
        learning_rate: the step size ``alpha`` (paper uses 0.1).
        gradient_bound: optional clamp on the incoming gradient (0 = off).
    """

    learning_rate: float = 0.1
    gradient_bound: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and positive")
        if self.gradient_bound < 0:
            raise ValueError("gradient_bound must be non-negative")

    def step(self, value: float, gradient: float, weight: float = 1.0) -> float:
        """Apply one update to a single parameter (paper Eq. 4 / Eq. 12)."""
        if weight < 0:
            raise ValueError("weight must be non-negative")
        gradient = clip_gradient(gradient, self.gradient_bound)
        return float(value) - weight * self.learning_rate * float(gradient)


@dataclass
class ParameterVectorState:
    """The master node's live parameter vector with per-parameter bookkeeping.

    Tracks how many times each parameter has been updated and the update
    version number used to quantify gradient staleness in the analysis.
    """

    values: np.ndarray
    update_counts: np.ndarray = field(init=False)
    version: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float).copy()
        self.update_counts = np.zeros(self.values.size, dtype=int)

    # ------------------------------------------------------------------
    @property
    def num_parameters(self) -> int:
        return int(self.values.size)

    def snapshot(self) -> tuple[float, ...]:
        """An immutable copy of the current parameter vector."""
        return tuple(float(v) for v in self.values)

    def apply(self, index: int, gradient: float, rule: AsgdRule, weight: float = 1.0) -> float:
        """Update one parameter in place and return its new value."""
        if not 0 <= index < self.num_parameters:
            raise IndexError(f"parameter index {index} out of range")
        self.values[index] = rule.step(self.values[index], gradient, weight)
        self.update_counts[index] += 1
        self.version += 1
        return float(self.values[index])

    def min_updates(self) -> int:
        """The smallest per-parameter update count (epoch boundary tracking)."""
        return int(self.update_counts.min()) if self.num_parameters else 0


def initial_parameters(
    num_parameters: int,
    rng: np.random.Generator,
    scale: float = 0.1,
) -> np.ndarray:
    """Small random initial parameters (shared by every trainer for fairness)."""
    if num_parameters < 1:
        raise ValueError("num_parameters must be >= 1")
    return rng.uniform(-scale, scale, size=num_parameters)
