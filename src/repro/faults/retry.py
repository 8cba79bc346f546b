"""Retry with exponential backoff, deterministic jitter, and deadlines."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["RetryPolicy", "DEFAULT_RETRY_POLICY"]


@dataclass(frozen=True)
class RetryPolicy:
    """How the provider retries transiently failing jobs.

    Attributes:
        max_attempts: total attempts per job (first try included).
        base_backoff_seconds: wait after the first failure.
        backoff_multiplier: exponential growth factor between attempts.
        max_backoff_seconds: cap on any single backoff wait.
        jitter_fraction: relative jitter band; the actual wait is
            ``backoff * (1 + jitter_fraction * u)`` with ``u ~ U(-1, 1)``
            drawn from the injector's per-device retry stream, so jitter is
            deterministic given ``(plan, seed)``.
        deadline_seconds: per-job wall budget on the *virtual* clock; once
            ``submit + deadline`` passes (backoffs included, delayed results
            included) the job fails with :class:`JobDeadlineExceeded`
            instead of retrying forever.  ``None`` disables the deadline.
    """

    max_attempts: int = 3
    base_backoff_seconds: float = 30.0
    backoff_multiplier: float = 2.0
    max_backoff_seconds: float = 900.0
    jitter_fraction: float = 0.1
    deadline_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_backoff_seconds < 0:
            raise ValueError("base_backoff_seconds must be non-negative")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")
        if self.max_backoff_seconds < self.base_backoff_seconds:
            raise ValueError("max_backoff_seconds must be >= base_backoff_seconds")
        if not 0.0 <= self.jitter_fraction < 1.0:
            raise ValueError("jitter_fraction must be within [0, 1)")
        deadline = self.deadline_seconds
        if deadline is not None and not (math.isfinite(deadline) and deadline > 0):
            raise ValueError("deadline_seconds must be finite and positive")

    # ------------------------------------------------------------------
    def backoff_seconds(self, attempt: int, rng: np.random.Generator) -> float:
        """Backoff after the ``attempt``-th failure (1-based), jittered."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        backoff = min(
            self.base_backoff_seconds * self.backoff_multiplier ** (attempt - 1),
            self.max_backoff_seconds,
        )
        if self.jitter_fraction > 0.0 and backoff > 0.0:
            backoff *= 1.0 + self.jitter_fraction * float(rng.uniform(-1.0, 1.0))
        return float(backoff)


#: The provider's default when faults are enabled without an explicit policy.
DEFAULT_RETRY_POLICY = RetryPolicy()
