"""Deterministic fault injection: per-label seeded streams over a plan.

The injector is the only component that *draws* fault randomness.  Every
stream is derived from ``(run seed, plan seed, crc32(label))`` — the same
idiom as :meth:`repro.sched.kernel.EventKernel.rng_stream` — so one
device's fault draws never depend on how many draws another device consumed:
scheduling order cannot leak into the chaos, and a run is reproducible from
``(plan, seed)`` alone.

The injector never touches device endpoint RNG streams: with a disabled
plan no stream is ever created and no draw is ever made, which is what
keeps fault-free seeded histories bit-exact.
"""

from __future__ import annotations

import zlib

import numpy as np

from .._streams import generator_state, restore_generator
from .plan import FaultPlan, OutageWindow

__all__ = ["FaultInjector"]

#: Domain tag folded into every injector stream seed (keeps injector draws
#: disjoint from kernel streams even under identical labels).
_STREAM_TAG = 0xFA17


class FaultInjector:
    """Draws deterministic fault decisions for one ``(plan, seed)`` pair."""

    def __init__(self, plan: FaultPlan, seed: int = 0) -> None:
        self.plan = plan
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self.plan.enabled

    def stream(self, label: str) -> np.random.Generator:
        """The independent, reproducible RNG stream for one labelled entity."""
        generator = self._streams.get(label)
        if generator is None:
            generator = np.random.default_rng(
                (self.seed, self.plan.seed, zlib.crc32(label.encode()), _STREAM_TAG)
            )
            self._streams[label] = generator
        return generator

    # ------------------------------------------------------------------
    # checkpoint support
    # ------------------------------------------------------------------
    def snapshot_streams(self) -> dict:
        """The position row of every stream created so far, by label.

        A stream that was never created needs no capture: it will be derived
        from ``(seed, plan.seed, label)`` at first use, exactly as in the
        original run.
        """
        return {label: generator_state(generator) for label, generator in self._streams.items()}

    def restore_streams(self, rows: dict) -> None:
        """Restore captured streams mid-sequence (resume under active chaos)."""
        for label, row in rows.items():
            restore_generator(self.stream(label), row)

    # ------------------------------------------------------------------
    # per-fault decision draws
    # ------------------------------------------------------------------
    def transient_failure(self, device: str) -> bool:
        """One per-attempt failure draw from the device's transient stream."""
        rate = self.plan.transient_failure_rate
        if rate <= 0.0:
            return False
        return float(self.stream(f"{device}/transient").uniform()) < rate

    def result_delay(self, device: str) -> float:
        """Injected result-visibility delay for one executed job (0 = none)."""
        rate = self.plan.result_timeout_rate
        if rate <= 0.0:
            return 0.0
        if float(self.stream(f"{device}/timeout").uniform()) >= rate:
            return 0.0
        return float(self.plan.result_delay_seconds)

    def retry_stream(self, device: str) -> np.random.Generator:
        """The stream backoff jitter for one device draws from."""
        return self.stream(f"{device}/retry")

    # ------------------------------------------------------------------
    # window lookups (no randomness)
    # ------------------------------------------------------------------
    def outage_at(self, device: str, t: float) -> OutageWindow | None:
        """The outage window covering ``t`` on one device, if any."""
        for window in self.plan.outages:
            if window.device == device and window.covers(t):
                return window
        return None

    def device_dead(self, device: str, t: float) -> bool:
        """True when a permanent outage has begun for this device."""
        for window in self.plan.outages:
            if window.device == device and window.permanent and window.start <= t:
                return True
        return False

    def calibration_blackout_at(self, device: str, t: float) -> OutageWindow | None:
        """The calibration blackout covering ``t`` on one device, if any."""
        for window in self.plan.calibration_blackouts:
            if window.device == device and window.covers(t):
                return window
        return None
