"""A virtual clock for discrete-event simulation of the quantum cloud.

Every timing quantity in the reproduction — queue delays, job durations,
calibration ages, epochs-per-hour — is measured against this clock rather
than wall time, which makes multi-week training campaigns (the paper's
Manhattan run would take ~193 days) replayable in seconds and perfectly
deterministic.
"""

from __future__ import annotations

from .._fields import require

__all__ = ["VirtualClock", "SECONDS_PER_HOUR", "hours", "seconds_to_hours"]

SECONDS_PER_HOUR = 3600.0


def hours(value: float) -> float:
    """Convert hours to seconds."""
    return float(value) * SECONDS_PER_HOUR


def seconds_to_hours(value: float) -> float:
    """Convert seconds to hours."""
    return float(value) / SECONDS_PER_HOUR


class VirtualClock:
    """A monotonically non-decreasing simulation clock (seconds) from ``start >= 0``."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(require(self, "start", start, low=0.0))

    @property
    def now(self) -> float:
        """Current simulation time, seconds."""
        return self._now

    @property
    def now_hours(self) -> float:
        """Current simulation time, hours."""
        return self._now / SECONDS_PER_HOUR

    def advance(self, delta_seconds: float) -> float:
        """Move the clock forward by ``delta_seconds`` (must be >= 0)."""
        if delta_seconds < 0:
            raise ValueError("the clock cannot run backwards")
        self._now += float(delta_seconds)
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Move the clock forward to an absolute timestamp (sleep-until).

        A ``timestamp`` at or before the current time is an explicit,
        guaranteed **no-op** — the clock never runs backwards and never
        raises here.  Scheduler correctness depends on this contract: the
        event kernel calls ``advance_to`` for every processed event, and the
        EQC master replays job completions out of global time order, so
        events legitimately carry timestamps the clock has already passed
        (see ``repro.sched.kernel``).  Pinned by
        ``tests/test_cloud/test_clock.py::TestVirtualClock::test_advance_to_past_is_documented_noop``.
        """
        if timestamp > self._now:
            self._now = float(timestamp)
        return self._now

    def __repr__(self) -> str:
        return f"VirtualClock(t={self._now:.1f}s = {self.now_hours:.2f}h)"
