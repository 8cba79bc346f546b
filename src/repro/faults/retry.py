"""Retry with exponential backoff, deterministic jitter, and deadlines."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._fields import require

__all__ = ["RetryPolicy", "DEFAULT_RETRY_POLICY"]


@dataclass(frozen=True)
class RetryPolicy:
    """How the provider retries transiently failing jobs.

    Attributes:
        max_attempts: total attempts per job (first try included), >= 1.
        base_backoff_seconds: wait after the first failure (>= 0).
        backoff_multiplier: exponential growth factor between attempts (>= 1).
        max_backoff_seconds: cap on any single backoff wait (>= the base).
        jitter_fraction: relative jitter band in [0, 1); the actual wait is
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
        require(self, "max_attempts", self.max_attempts, low=1, integer=True)
        base = require(self, "base_backoff_seconds", self.base_backoff_seconds, low=0.0)
        require(self, "backoff_multiplier", self.backoff_multiplier, low=1.0)
        require(self, "max_backoff_seconds", self.max_backoff_seconds, low=base)
        require(self, "jitter_fraction", self.jitter_fraction, low=0.0, high=1.0, open_high=True)
        if self.deadline_seconds is not None:
            require(self, "deadline_seconds", self.deadline_seconds, low=0.0, open_low=True)

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
