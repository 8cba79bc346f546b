"""Calibration generation: sampling realistic calibration snapshots.

Each device in the Table I catalog carries a :class:`NoiseProfile` describing
its *typical* calibration quality (derived from published IBMQ-era Falcon
figures: T1/T2 of tens-to-hundreds of microseconds, single-qubit errors of a
few 1e-4, CNOT errors around 1e-2, readout errors of a few percent).  A
:class:`CalibrationGenerator` samples fresh :class:`CalibrationSnapshot`
objects around that profile with qubit-to-qubit variation, giving every
calibration cycle a slightly different — but device-characteristic — noise
fingerprint, just like real recalibrations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .._fields import require
from .calibration import CalibrationSnapshot, GateCalibration, QubitCalibration

__all__ = ["NoiseProfile", "CalibrationGenerator"]


@dataclass(frozen=True)
class NoiseProfile:
    """Typical calibration figures for one device.

    All quantities are medians; relative spread controls the lognormal
    qubit-to-qubit and cycle-to-cycle variation.

    Attributes:
        t1: median T1, seconds.
        t2: median T2, seconds.
        single_qubit_error: median 1-qubit depolarizing error per gate.
        cx_error: median CNOT error per gate.
        readout_error: median symmetric readout error.
        single_qubit_gate_time: seconds.
        cx_gate_time: seconds.
        relative_spread: lognormal sigma applied when sampling.
        crosstalk: latent cross-talk penalty per entangling gate; *not*
            reported in snapshots (the estimator never sees it), but it
            degrades the device's true success probability.  Highly-connected
            topologies (e.g. the fully-connected ``x2``) get larger values,
            matching the paper's Section III-C.3 discussion.
        coherent_bias: systematic over-rotation fraction for rotation gates;
            the device-specific bias single-machine training silently learns.
    """

    t1: float = 100e-6
    t2: float = 90e-6
    single_qubit_error: float = 4e-4
    cx_error: float = 1.2e-2
    readout_error: float = 2.5e-2
    single_qubit_gate_time: float = 35e-9
    cx_gate_time: float = 320e-9
    relative_spread: float = 0.25
    crosstalk: float = 0.0
    coherent_bias: float = 0.0

    def __post_init__(self) -> None:
        for name in ("t1", "t2", "single_qubit_gate_time", "cx_gate_time"):
            require(self, name, getattr(self, name), low=0.0, open_low=True)
        for name in ("single_qubit_error", "cx_error", "readout_error", "crosstalk"):
            require(self, name, getattr(self, name), low=0.0, high=1.0)
        require(self, "relative_spread", self.relative_spread, low=0.0)
        require(self, "coherent_bias", self.coherent_bias)


class CalibrationGenerator:
    """Samples calibration snapshots for one device around its profile."""

    def __init__(self, profile: NoiseProfile, device_seed: int) -> None:
        self.profile = profile
        self.device_seed = int(device_seed)

    def generate(
        self,
        device_name: str,
        num_qubits: int,
        couplings: Iterable[tuple[int, int]],
        timestamp: float,
        cycle: int = 0,
    ) -> CalibrationSnapshot:
        """Generate the snapshot for one calibration cycle.

        Args:
            device_name: device the snapshot is for.
            num_qubits: number of physical qubits.
            couplings: directed physical couplings (both directions are
                calibrated; if only one direction is supplied, the reverse is
                added automatically).
            timestamp: simulation time (seconds) the calibration completes.
            cycle: calibration cycle index — successive cycles draw fresh
                randomness deterministically.
        """
        rng = np.random.default_rng((self.device_seed, int(cycle), 0xCAFE))
        profile = self.profile

        qubits = []
        single_gates = []
        for _ in range(num_qubits):
            t1 = self._lognormal(rng, profile.t1)
            t2 = min(self._lognormal(rng, profile.t2), 2.0 * t1)
            readout = self._lognormal(rng, profile.readout_error)
            asymmetry = rng.uniform(0.7, 1.3)
            qubits.append(
                QubitCalibration(
                    t1=t1,
                    t2=t2,
                    readout_p01=self._clamp(readout * asymmetry),
                    readout_p10=self._clamp(readout * (2.0 - asymmetry)),
                    frequency=rng.uniform(4.8e9, 5.3e9),
                    anharmonicity=rng.uniform(-0.35e9, -0.31e9),
                )
            )
            single_gates.append(
                GateCalibration(
                    error=self._clamp(self._lognormal(rng, profile.single_qubit_error)),
                    duration=profile.single_qubit_gate_time,
                )
            )

        two_qubit = {}
        for a, b in couplings:
            pair = (int(a), int(b))
            error = self._clamp(self._lognormal(rng, profile.cx_error))
            duration = self._lognormal(rng, profile.cx_gate_time)
            two_qubit[pair] = GateCalibration(error=error, duration=duration)
            reverse = (pair[1], pair[0])
            if reverse not in two_qubit:
                # The reverse direction is usually slightly worse (extra
                # single-qubit dressing), mirroring real backends.
                two_qubit[reverse] = GateCalibration(
                    error=self._clamp(error * rng.uniform(1.0, 1.15)),
                    duration=duration * rng.uniform(1.0, 1.1),
                )

        return CalibrationSnapshot(
            device_name=device_name,
            timestamp=float(timestamp),
            qubits=tuple(qubits),
            single_qubit_gates=tuple(single_gates),
            two_qubit_gates=two_qubit,
        )

    # ------------------------------------------------------------------
    def _lognormal(self, rng: np.random.Generator, median: float) -> float:
        if median <= 0:
            return 0.0
        sigma = self.profile.relative_spread
        if sigma == 0:
            return median
        return float(median * np.exp(rng.normal(0.0, sigma)))

    @staticmethod
    def _clamp(p: float, low: float = 0.0, high: float = 0.5) -> float:
        """Keep sampled probabilities inside a sane range."""
        return float(min(high, max(low, p)))
