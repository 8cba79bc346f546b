"""Time-dependent noise drift between calibration events.

The paper repeatedly observes that NISQ device quality degrades (and
occasionally swings wildly) as time-since-calibration grows: the Fig. 4 GHZ
validation is markedly worse for 12-hour-old calibrations, Casablanca's VQE
run (Fig. 6) diverges after converging, and Toronto's throughput fluctuates by
two orders of magnitude.  This module models that behaviour.

The drift factor is a deterministic function of (device seed, calibration
cycle, hours since calibration), composed of:

* a **linear degradation** term (``drift_rate`` per hour),
* a **diurnal oscillation** (devices share cryostats, control electronics and
  job load that vary on a several-hour scale),
* occasional **noise bursts**: with some per-cycle probability, the device
  enters a window in which its errors are multiplied several-fold — the
  mechanism behind Casablanca-style divergence.

Determinism matters: every experiment in the reproduction is seeded, so two
runs of the same benchmark see identical device weather.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["DriftProfile", "DriftModel"]

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class DriftProfile:
    """Per-device drift characteristics.

    Attributes:
        drift_rate: fractional error growth per hour since calibration
            (0.02 means errors are 2% worse per hour).
        oscillation_amplitude: amplitude of the slow periodic swing
            (fraction of the base error level).
        oscillation_period_hours: period of the slow swing.
        burst_probability: probability per calibration cycle that the device
            experiences a noise burst window.
        burst_magnitude: multiplicative error inflation during a burst.
        burst_duration_hours: length of a burst window.
    """

    drift_rate: float = 0.02
    oscillation_amplitude: float = 0.05
    oscillation_period_hours: float = 9.0
    burst_probability: float = 0.15
    burst_magnitude: float = 3.0
    burst_duration_hours: float = 4.0

    def __post_init__(self) -> None:
        if self.drift_rate < 0:
            raise ValueError("drift_rate must be non-negative")
        if self.oscillation_amplitude < 0:
            raise ValueError("oscillation_amplitude must be non-negative")
        if not (math.isfinite(self.oscillation_period_hours) and self.oscillation_period_hours > 0):
            raise ValueError("oscillation_period_hours must be finite and positive")
        if not 0.0 <= self.burst_probability <= 1.0:
            raise ValueError("burst_probability must be within [0, 1]")
        if self.burst_magnitude < 1.0:
            raise ValueError("burst_magnitude must be >= 1")
        if self.burst_duration_hours <= 0:
            raise ValueError("burst_duration_hours must be positive")


class DriftModel:
    """Deterministic drift-factor generator for one device."""

    def __init__(self, profile: DriftProfile, device_seed: int) -> None:
        self.profile = profile
        self.device_seed = int(device_seed)
        #: Per-cycle randomness (phase, burst roll, burst start) — drawn once
        #: per calibration cycle instead of reconstructing a Generator on
        #: every drift_factor call.  The draws and their order are identical
        #: to the uncached code, so factors are bit-exact.
        self._cycle_params: dict[int, tuple[float, float, float | None]] = {}

    # ------------------------------------------------------------------
    def drift_factor(self, hours_since_calibration: float, cycle: int = 0) -> float:
        """Multiplicative error inflation at a given calibration age.

        Args:
            hours_since_calibration: non-negative age of the current
                calibration, in hours.
            cycle: index of the calibration cycle (each recalibration starts
                a new cycle with fresh burst/phase randomness).

        Returns:
            A factor >= 1 applied to all reported error rates to obtain the
            device's *effective* error rates.
        """
        hours = float(hours_since_calibration)
        if not hours > 0.0:  # negative (or NaN) ages clamp to the calibration
            hours = 0.0
        p = self.profile
        # Every tenant job start lands here: the memo hit stays in this frame.
        params = self._cycle_params.get(cycle)
        if params is None:
            params = self._params_for(cycle)
        phase, _roll, burst_start = params
        linear = p.drift_rate * hours
        oscillation = p.oscillation_amplitude * (
            1.0 + math.sin(_TWO_PI * hours / p.oscillation_period_hours + phase)
        ) / 2.0
        factor = 1.0 + linear + oscillation

        if burst_start is not None:
            if burst_start <= hours <= burst_start + p.burst_duration_hours:
                factor *= p.burst_magnitude
        return factor

    def _params_for(self, cycle: int) -> tuple[float, float, float | None]:
        """Draw and memoize the cycle's (phase, burst roll, burst start)."""
        cycle = int(cycle)
        rng = self._cycle_rng(cycle)
        phase = rng.uniform(0.0, _TWO_PI)
        burst_roll = rng.uniform(0.0, 1.0)
        burst_start = (
            rng.uniform(1.0, 20.0)
            if burst_roll < self.profile.burst_probability
            else None
        )
        params = self._cycle_params[cycle] = (phase, burst_roll, burst_start)
        return params

    def speed_factor(self, hours_since_calibration: float, cycle: int = 0) -> float:
        """Throughput multiplier (<= 1) at a given calibration age.

        Devices under drift (or mid-burst) also serve jobs more slowly —
        re-queues, retries and maintenance windows.  The paper reports
        Toronto swinging from 6.5 to 0.03 epochs/hour; this factor produces
        that style of slowdown.
        """
        factor = self.drift_factor(hours_since_calibration, cycle)
        return 1.0 / factor

    # ------------------------------------------------------------------
    def _cycle_rng(self, cycle: int) -> np.random.Generator:
        """Fresh deterministic randomness for each calibration cycle."""
        return np.random.default_rng((self.device_seed, int(cycle), 0x5EED))
