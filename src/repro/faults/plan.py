"""Declarative fault plans: what breaks, where, and when.

A :class:`FaultPlan` is pure data — the complete description of one chaos
scenario.  Together with a run seed it fully determines every injected fault
(the :class:`~repro.faults.injector.FaultInjector` derives per-device RNG
streams from ``(seed, plan.seed, crc32(label))``, the same idiom as the sched
kernel), so any chaos run is bit-reproducible from ``(plan, seed)``.

Four fault families cover the failure modes a real quantum cloud exhibits:

* **outages** — a device goes offline for a window (or forever);
* **transient job failures** — a job reaches the device head and bombs with
  some probability (calibration glitch, control-electronics hiccup);
* **result timeouts** — the job executes but its results are delayed past
  the caller's deadline;
* **calibration blackouts** — the provider stops republishing device
  properties for a window, so ``PCorrect`` estimates go stale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .._fields import require

__all__ = ["OutageWindow", "FaultPlan"]


@dataclass(frozen=True)
class OutageWindow:
    """One device outage: ``[start, start + duration)`` (or forever).

    ``start >= 0`` and ``duration > 0``; ``permanent=True`` (or ``duration=inf``,
    the one infinity allowed) models a device that never comes back — the
    fleet-shrink scenario the paper's ensemble argument is ultimately about.
    """

    device: str
    start: float = 0.0
    duration: float = float("inf")
    permanent: bool = False

    def __post_init__(self) -> None:
        if not self.device:
            raise ValueError("an outage window needs a device name")
        require(self, "start", self.start, low=0.0)
        if self.duration != math.inf:  # inf is a permanent outage
            require(self, "duration", self.duration, low=0.0, open_low=True)
        if self.permanent and math.isfinite(self.duration):
            # Normalize: a permanent outage has no end.
            object.__setattr__(self, "duration", float("inf"))
        if not self.permanent and not math.isfinite(self.duration):
            object.__setattr__(self, "permanent", True)

    @property
    def end(self) -> float:
        return self.start + self.duration

    def covers(self, t: float) -> bool:
        return self.start <= t < self.end


@dataclass(frozen=True)
class FaultPlan:
    """A complete, deterministic chaos scenario.

    Attributes:
        seed: plan-level seed folded into every injector stream; two runs
            with the same ``(plan, run seed)`` inject identical faults.
        outages: device outage windows (see :class:`OutageWindow`).
        transient_failure_rate: per-attempt probability that a job fails the
            moment it reaches the device head (absorbed by the retry loop).
        result_timeout_rate: probability that a successfully executed job's
            results are delayed by ``result_delay_seconds`` before becoming
            visible (a per-job deadline turns the delay into a failure).
        result_delay_seconds: size of one injected result delay (finite, > 0).
        calibration_blackouts: windows during which a device's published
            properties freeze at their window-start values, so client
            ``PCorrect`` estimates go stale.
    """

    seed: int = 0
    outages: tuple[OutageWindow, ...] = ()
    transient_failure_rate: float = 0.0
    result_timeout_rate: float = 0.0
    result_delay_seconds: float = 600.0
    calibration_blackouts: tuple[OutageWindow, ...] = ()

    def __post_init__(self) -> None:
        # Accept any iterable for the window collections.
        object.__setattr__(self, "outages", tuple(self.outages))
        object.__setattr__(
            self, "calibration_blackouts", tuple(self.calibration_blackouts)
        )
        require(self, "seed", self.seed, low=0, integer=True)
        for name in ("transient_failure_rate", "result_timeout_rate"):
            require(self, name, getattr(self, name), low=0.0, high=1.0, open_high=True)
        require(self, "result_delay_seconds", self.result_delay_seconds, low=0.0, open_low=True)

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """True when the plan injects anything at all."""
        return bool(
            self.outages
            or self.transient_failure_rate > 0.0
            or self.result_timeout_rate > 0.0
            or self.calibration_blackouts
        )

    def describe(self) -> dict:
        """A JSON-friendly summary (recorded into training metadata)."""
        return {
            "seed": self.seed,
            "outages": [
                {
                    "device": w.device,
                    "start": w.start,
                    "duration": w.duration,
                    "permanent": w.permanent,
                }
                for w in self.outages
            ],
            "transient_failure_rate": self.transient_failure_rate,
            "result_timeout_rate": self.result_timeout_rate,
            "result_delay_seconds": self.result_delay_seconds,
            "calibration_blackouts": [
                {"device": w.device, "start": w.start, "duration": w.duration}
                for w in self.calibration_blackouts
            ],
        }
