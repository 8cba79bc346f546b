"""Per-device circuit breakers: closed → open → half-open, with probes.

The :class:`DeviceHealthTracker` is the resilience layer's memory.  Failures
on a device accumulate until the breaker *opens* (the device is quarantined);
after ``recovery_seconds`` the breaker turns *half-open* and admits probe
jobs; enough probe successes close it again, one probe failure re-opens it.
A device whose breaker keeps re-opening (``max_reopens``) — or that suffered
a permanent outage — is marked *dead* and retired from the fleet.

Every transition is recorded with its virtual timestamp, so two identical
chaos runs can be compared transition-for-transition (the determinism pin of
``tests/test_faults/test_degradation.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .._fields import require
from ..telemetry import TELEMETRY as _telemetry

__all__ = ["BreakerState", "BreakerTransition", "DeviceHealthTracker"]


class BreakerState(str, Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


#: Gauge encoding of breaker states (for faults.breaker_state telemetry).
_STATE_GAUGE = {BreakerState.CLOSED: 0, BreakerState.HALF_OPEN: 1, BreakerState.OPEN: 2}


@dataclass(frozen=True)
class BreakerTransition:
    """One recorded breaker state change."""

    time: float
    device: str
    from_state: str
    to_state: str
    reason: str = ""


@dataclass
class _DeviceHealth:
    state: BreakerState = BreakerState.CLOSED
    consecutive_failures: int = 0
    opened_at: float = 0.0
    probe_successes: int = 0
    reopens: int = 0
    dead: bool = False
    failures_total: int = 0
    successes_total: int = 0


class DeviceHealthTracker:
    """Tracks per-device failure history and gates dispatch through breakers."""

    def __init__(
        self,
        failure_threshold: int = 3,
        recovery_seconds: float = 1800.0,
        probe_successes: int = 1,
        max_reopens: int = 8,
        max_transitions: int = 10000,
    ) -> None:
        require(self, "recovery_seconds", recovery_seconds, low=0.0, open_low=True)
        require(self, "failure_threshold", failure_threshold, low=1, integer=True)
        require(self, "probe_successes", probe_successes, low=1, integer=True)
        require(self, "max_reopens", max_reopens, low=1, integer=True)
        require(self, "max_transitions", max_transitions, low=1, integer=True)
        self.failure_threshold = int(failure_threshold)
        self.recovery_seconds = float(recovery_seconds)
        self.probe_successes = int(probe_successes)
        #: A breaker that re-opens from HALF_OPEN this many times marks the
        #: device dead — persistent failure must converge to retirement, not
        #: probe forever (the master's liveness depends on this).
        self.max_reopens = int(max_reopens)
        #: Cap on the recorded transition log so week-long chaos runs cannot
        #: grow memory without bound; ``transitions_total`` stays exact and
        #: ``transitions_dropped`` counts what the cap discarded.
        self.max_transitions = int(max_transitions)
        self._devices: dict[str, _DeviceHealth] = {}
        self.transitions: list[BreakerTransition] = []
        self.transitions_total = 0
        self.transitions_dropped = 0

    # ------------------------------------------------------------------
    def _entry(self, device: str) -> _DeviceHealth:
        entry = self._devices.get(device)
        if entry is None:
            entry = _DeviceHealth()
            self._devices[device] = entry
        return entry

    def _transition(
        self, device: str, entry: _DeviceHealth, to: BreakerState, now: float, reason: str
    ) -> None:
        self.transitions_total += 1
        if len(self.transitions) < self.max_transitions:
            self.transitions.append(
                BreakerTransition(
                    time=float(now),
                    device=device,
                    from_state=entry.state.value,
                    to_state=to.value,
                    reason=reason,
                )
            )
        else:
            # Deterministic overflow: keep the earliest max_transitions
            # entries and count the tail — identical runs drop identically.
            self.transitions_dropped += 1
        entry.state = to

    # ------------------------------------------------------------------
    def state(self, device: str) -> BreakerState:
        return self._entry(device).state

    def is_dead(self, device: str) -> bool:
        return self._entry(device).dead

    def retry_at(self, device: str) -> float:
        """Earliest virtual time at which an open breaker admits a probe."""
        entry = self._entry(device)
        if entry.dead:
            return float("inf")
        if entry.state is BreakerState.OPEN:
            return entry.opened_at + self.recovery_seconds
        return 0.0

    def allow(self, device: str, now: float) -> bool:
        """May a job be dispatched to this device at ``now``?

        An OPEN breaker whose recovery period has elapsed transitions to
        HALF_OPEN here (the caller's dispatch becomes the probe job).
        """
        entry = self._entry(device)
        if entry.dead:
            return False
        if entry.state is BreakerState.CLOSED:
            return True
        if entry.state is BreakerState.OPEN:
            if now >= entry.opened_at + self.recovery_seconds:
                entry.probe_successes = 0
                self._transition(
                    device, entry, BreakerState.HALF_OPEN, now, "recovery elapsed"
                )
                return True
            return False
        return True  # HALF_OPEN: probes flow

    # ------------------------------------------------------------------
    def record_success(self, device: str, now: float) -> None:
        entry = self._entry(device)
        entry.successes_total += 1
        if entry.state is BreakerState.HALF_OPEN:
            entry.probe_successes += 1
            if entry.probe_successes >= self.probe_successes:
                entry.consecutive_failures = 0
                self._transition(
                    device, entry, BreakerState.CLOSED, now, "probes succeeded"
                )
        elif entry.state is BreakerState.CLOSED:
            entry.consecutive_failures = 0

    def record_failure(self, device: str, now: float) -> None:
        entry = self._entry(device)
        entry.failures_total += 1
        entry.consecutive_failures += 1
        if entry.state is BreakerState.HALF_OPEN:
            entry.reopens += 1
            entry.opened_at = float(now)
            if entry.reopens >= self.max_reopens:
                entry.dead = True
                self._transition(
                    device, entry, BreakerState.OPEN, now, "max reopens: device dead"
                )
            else:
                self._transition(device, entry, BreakerState.OPEN, now, "probe failed")
        elif (
            entry.state is BreakerState.CLOSED
            and entry.consecutive_failures >= self.failure_threshold
        ):
            entry.opened_at = float(now)
            self._transition(
                device, entry, BreakerState.OPEN, now, "failure threshold"
            )

    def mark_dead(self, device: str, now: float, reason: str = "permanent outage") -> None:
        entry = self._entry(device)
        if entry.dead:
            return
        entry.dead = True
        if entry.state is not BreakerState.OPEN:
            entry.opened_at = float(now)
            self._transition(device, entry, BreakerState.OPEN, now, reason)

    # ------------------------------------------------------------------
    def live_devices(self, devices) -> list[str]:
        """The subset of ``devices`` not marked dead."""
        return [device for device in devices if not self._entry(device).dead]

    def summary(self) -> dict:
        """JSON-friendly snapshot (used for determinism pins and metadata)."""
        out = {
            "devices": {
                name: {
                    "state": entry.state.value,
                    "dead": entry.dead,
                    "failures_total": entry.failures_total,
                    "successes_total": entry.successes_total,
                    "reopens": entry.reopens,
                }
                for name, entry in sorted(self._devices.items())
            },
            "transitions": [
                {
                    "time": t.time,
                    "device": t.device,
                    "from": t.from_state,
                    "to": t.to_state,
                    "reason": t.reason,
                }
                for t in self.transitions
            ],
        }
        if self.transitions_dropped > 0:
            # The overflow marker appears only when the cap actually dropped
            # entries, so uncapped summaries stay byte-identical to the seed.
            out["transitions_total"] = self.transitions_total
            out["transitions_dropped"] = self.transitions_dropped
        return out

    # ------------------------------------------------------------------
    # checkpoint support
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Complete breaker state as JSON-able data (resume mid-chaos)."""
        return {
            "devices": {
                name: {
                    "state": entry.state.value,
                    "consecutive_failures": entry.consecutive_failures,
                    "opened_at": entry.opened_at,
                    "probe_successes": entry.probe_successes,
                    "reopens": entry.reopens,
                    "dead": entry.dead,
                    "failures_total": entry.failures_total,
                    "successes_total": entry.successes_total,
                }
                for name, entry in self._devices.items()
            },
            "transitions": [
                {
                    "time": t.time,
                    "device": t.device,
                    "from_state": t.from_state,
                    "to_state": t.to_state,
                    "reason": t.reason,
                }
                for t in self.transitions
            ],
            "transitions_total": self.transitions_total,
            "transitions_dropped": self.transitions_dropped,
        }

    def restore_state(self, data: dict) -> None:
        """Restore a captured breaker state into this (fresh) tracker."""
        self._devices = {
            name: _DeviceHealth(
                state=BreakerState(entry["state"]),
                consecutive_failures=int(entry["consecutive_failures"]),
                opened_at=float(entry["opened_at"]),
                probe_successes=int(entry["probe_successes"]),
                reopens=int(entry["reopens"]),
                dead=bool(entry["dead"]),
                failures_total=int(entry["failures_total"]),
                successes_total=int(entry["successes_total"]),
            )
            for name, entry in data["devices"].items()
        }
        self.transitions = [
            BreakerTransition(
                time=float(t["time"]),
                device=str(t["device"]),
                from_state=str(t["from_state"]),
                to_state=str(t["to_state"]),
                reason=str(t["reason"]),
            )
            for t in data["transitions"]
        ]
        self.transitions_total = int(data["transitions_total"])
        self.transitions_dropped = int(data["transitions_dropped"])

    def publish(self, registry=None, prefix: str = "faults") -> None:
        """Write breaker states and transition counts into a metrics registry."""
        if registry is None:
            registry = _telemetry.registry
        for name, entry in self._devices.items():
            registry.gauge(f"{prefix}.breaker_state", device=name).set(
                _STATE_GAUGE[entry.state]
            )
            registry.gauge(f"{prefix}.device_failures", device=name).set(
                entry.failures_total
            )
        # transitions_total, not len(transitions): the gauge stays exact even
        # after the max_transitions cap starts dropping log entries.
        registry.gauge(f"{prefix}.breaker_transitions").set(self.transitions_total)

    def __repr__(self) -> str:
        states = {name: e.state.value for name, e in self._devices.items()}
        return f"DeviceHealthTracker({states})"
