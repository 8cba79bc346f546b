"""Calibration snapshots: the data a QPU reports after each calibration.

IBMQ-style devices are recalibrated periodically (roughly daily) and publish a
snapshot of per-qubit coherence times, readout fidelities, and per-gate error
rates and durations.  Both sides of EQC consume this data:

* the **device model** (:mod:`repro.devices.qpu`) evolves its *effective*
  noise away from the reported snapshot as time-since-calibration grows
  (:mod:`repro.noise.drift`), which is the temporal drift the paper observes;
* the **client node** (:mod:`repro.core.client`) only ever sees the *reported*
  snapshot, from which it computes the ``PCorrect`` weighting estimate
  (paper Eq. 2) — the gap between reported and effective noise is precisely
  why the Fig. 4 scatter degrades for stale calibrations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping

from .._fields import require
from ..reduction import ordered_sum

__all__ = ["QubitCalibration", "GateCalibration", "CalibrationSnapshot"]


@dataclass(frozen=True)
class QubitCalibration:
    """Reported calibration data for a single physical qubit.

    Attributes:
        t1: relaxation time constant, seconds (finite, > 0).
        t2: dephasing time constant, seconds (``0 < t2 <= 2 * t1``).
        readout_p01: probability of reading 1 when the qubit held 0.
        readout_p10: probability of reading 0 when the qubit held 1.
        frequency: qubit transition frequency, Hz (informational).
        anharmonicity: transmon anharmonicity, Hz (informational).
    """

    t1: float
    t2: float
    readout_p01: float
    readout_p10: float
    frequency: float = 5.0e9
    anharmonicity: float = -0.33e9

    def __post_init__(self) -> None:
        require(self, "t1", self.t1, low=0.0, open_low=True)
        require(self, "t2", self.t2, low=0.0, high=2 * self.t1 + 1e-15, open_low=True)
        require(self, "readout_p01", self.readout_p01, low=0.0, high=1.0)
        require(self, "readout_p10", self.readout_p10, low=0.0, high=1.0)
        require(self, "frequency", self.frequency)
        require(self, "anharmonicity", self.anharmonicity)

    @property
    def readout_error(self) -> float:
        """Symmetrized readout error probability."""
        return 0.5 * (self.readout_p01 + self.readout_p10)


@dataclass(frozen=True)
class GateCalibration:
    """Reported error rate in [0, 1] and duration >= 0 for one gate (or family)."""

    error: float
    duration: float

    def __post_init__(self) -> None:
        require(self, "error", self.error, low=0.0, high=1.0)
        require(self, "duration", self.duration, low=0.0)

    @property
    def fidelity(self) -> float:
        return 1.0 - self.error


class _ReadOnlyDict(dict):
    """A dict whose mutators raise: a snapshot is shared process-wide, so no
    caller may change its table.  Reads run at dict speed; copies and pickles
    rebuild it from its items."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("a calibration snapshot's CX table is read-only")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return type(self), (dict(self),)


@dataclass(frozen=True)
class CalibrationSnapshot:
    """A complete calibration report for one device at one instant.

    Attributes:
        device_name: device the snapshot belongs to.
        timestamp: simulation time (seconds) the calibration completed.
        qubits: per-qubit calibration, indexed by physical qubit.
        single_qubit_gates: per-qubit 1-qubit (SX/X/RZ) gate calibration.
        two_qubit_gates: per-coupling CNOT calibration keyed by the ordered
            physical pair ``(control, target)``; both directions are present.
            Stored read-only (a copy of the mapping passed in): one snapshot
            serves every device of a spec.
    """

    device_name: str
    timestamp: float
    qubits: tuple[QubitCalibration, ...]
    single_qubit_gates: tuple[GateCalibration, ...]
    two_qubit_gates: Mapping[tuple[int, int], GateCalibration] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.qubits:
            raise ValueError("a snapshot needs at least one qubit")
        if len(self.single_qubit_gates) != len(self.qubits):
            raise ValueError("need one single-qubit gate calibration per qubit")
        if type(self.two_qubit_gates) is not _ReadOnlyDict:
            object.__setattr__(self, "two_qubit_gates", _ReadOnlyDict(self.two_qubit_gates))
        n = len(self.qubits)
        for (a, b) in self.two_qubit_gates:
            if not (0 <= a < n and 0 <= b < n) or a == b:
                raise ValueError(f"invalid coupling ({a}, {b}) for {n} qubits")

    # ------------------------------------------------------------------
    @property
    def num_qubits(self) -> int:
        return len(self.qubits)

    @property
    def average_t1(self) -> float:
        return ordered_sum(q.t1 for q in self.qubits) / len(self.qubits)

    @property
    def average_t2(self) -> float:
        return ordered_sum(q.t2 for q in self.qubits) / len(self.qubits)

    @property
    def average_readout_error(self) -> float:
        return ordered_sum(q.readout_error for q in self.qubits) / len(self.qubits)

    @property
    def average_single_qubit_error(self) -> float:
        return ordered_sum(g.error for g in self.single_qubit_gates) / len(self.single_qubit_gates)

    @property
    def average_single_qubit_gate_time(self) -> float:
        gates = self.single_qubit_gates
        return ordered_sum(g.duration for g in gates) / len(gates)

    @property
    def average_cx_error(self) -> float:
        if not self.two_qubit_gates:
            return 0.0
        errors = [g.error for g in self.two_qubit_gates.values()]
        return ordered_sum(errors) / len(errors)

    @property
    def average_cx_gate_time(self) -> float:
        if not self.two_qubit_gates:
            return 0.0
        durations = [g.duration for g in self.two_qubit_gates.values()]
        return ordered_sum(durations) / len(durations)

    # ------------------------------------------------------------------
    def cx_calibration(self, control: int, target: int) -> GateCalibration:
        """CNOT calibration for a physical pair (either direction accepted)."""
        key = (control, target)
        if key in self.two_qubit_gates:
            return self.two_qubit_gates[key]
        reverse = (target, control)
        if reverse in self.two_qubit_gates:
            return self.two_qubit_gates[reverse]
        raise KeyError(f"no CNOT calibration for coupling ({control}, {target})")

    def age_at(self, now: float) -> float:
        """Seconds elapsed since this calibration at simulation time ``now``."""
        return max(0.0, float(now) - self.timestamp)

    def with_timestamp(self, timestamp: float) -> "CalibrationSnapshot":
        """Copy of the snapshot stamped at a different time."""
        return replace(self, timestamp=float(timestamp))

    def scale_errors(self, factor: float) -> "CalibrationSnapshot":
        """Return a snapshot with all error rates scaled by ``factor``.

        Coherence times are divided by the same factor (noisier device ->
        shorter coherence).  Used by the drift model to produce the
        *effective* (unreported) calibration between calibration events.
        """
        require(self, "factor", factor, low=0, open_low=True)

        def clamp(p: float) -> float:
            return min(1.0, max(0.0, p))

        qubits = tuple(
            QubitCalibration(
                t1=q.t1 / factor,
                t2=min(q.t2 / factor, 2 * q.t1 / factor),
                readout_p01=clamp(q.readout_p01 * factor),
                readout_p10=clamp(q.readout_p10 * factor),
                frequency=q.frequency,
                anharmonicity=q.anharmonicity,
            )
            for q in self.qubits
        )
        singles = tuple(
            GateCalibration(error=clamp(g.error * factor), duration=g.duration)
            for g in self.single_qubit_gates
        )
        twos = {
            pair: GateCalibration(error=clamp(g.error * factor), duration=g.duration)
            for pair, g in self.two_qubit_gates.items()
        }
        return CalibrationSnapshot(
            device_name=self.device_name,
            timestamp=self.timestamp,
            qubits=qubits,
            single_qubit_gates=singles,
            two_qubit_gates=twos,
        )
