"""Figure 4 — validating the PCorrect analytic model on GHZ states.

The paper prepares a 5-qubit GHZ state on six devices and compares the
*calculated* chance of error (1 - PCorrect from Eq. 2, evaluated on the
published calibration data) with the *observed* error (the fraction of
measured bitstrings containing both a 0 and a 1).  A strong but imperfect
correlation results (Pearson r = 0.784, R^2 = 0.605), with the model
underestimating the error of stale calibrations.

The driver reproduces the same protocol on the simulated fleet: for each
device and each calibration age it computes the Eq. 2 estimate from the
calibration-time snapshot and measures the realized error from actual noisy
executions (which include drift and latent cross-talk), then reports the
scatter points and the correlation statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..analysis.correlation import CorrelationReport, correlate
from ..analysis.reporting import format_table
from ..circuit.library import ghz_state
from ..cloud.clock import hours
from ..core.weighting import estimate_p_correct
from ..devices.catalog import build_qpu
from ..transpiler.transpile import transpile

__all__ = ["GhzPoint", "GhzValidationResult", "fig4_ghz_validation", "render_fig4"]

DEFAULT_DEVICES: tuple[str, ...] = ("Lima", "x2", "Belem", "Quito", "Manila", "Bogota")
#: "1 minute since calibration" and "12 hours since calibration" (paper Fig. 4).
DEFAULT_AGES_HOURS: tuple[float, ...] = (1.0 / 60.0, 12.0)


@dataclass(frozen=True)
class GhzPoint:
    """One scatter point: a device at a calibration age."""

    device: str
    calibration_age_hours: float
    calculated_error: float
    observed_error: float

    def as_dict(self) -> dict[str, object]:
        return {
            "device": self.device,
            "age_hours": self.calibration_age_hours,
            "calculated_error": self.calculated_error,
            "observed_error": self.observed_error,
        }


@dataclass
class GhzValidationResult:
    """The Fig. 4 scatter plus its correlation statistics."""

    points: list[GhzPoint]
    correlation: CorrelationReport

    def rows(self) -> list[dict[str, object]]:
        return [p.as_dict() for p in self.points]


def ghz_observed_error(counts) -> float:
    """Fraction of outcomes that are neither all-zeros nor all-ones."""
    total = sum(counts.values())
    if total == 0:
        return 0.0
    good = 0
    for bitstring, count in counts.items():
        if set(bitstring) in ({"0"}, {"1"}):
            good += count
    return 1.0 - good / total


def fig4_ghz_validation(
    device_names: Sequence[str] = DEFAULT_DEVICES,
    ages_hours: Sequence[float] = DEFAULT_AGES_HOURS,
    num_qubits: int = 5,
    shots: int = 8192,
    repeats: int = 3,
    seed: int = 0,
) -> GhzValidationResult:
    """Run the GHZ validation across devices and calibration ages."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    circuit = ghz_state(num_qubits)
    rng = np.random.default_rng(seed)
    points: list[GhzPoint] = []

    for name in device_names:
        qpu = build_qpu(name)
        transpiled = transpile(circuit, qpu.topology)
        for age in ages_hours:
            now = hours(age)
            # Calculated error: Eq. 2 on the data published at calibration time.
            reported = qpu.reported_calibration(now)
            calculated = 1.0 - estimate_p_correct(reported, transpiled.footprint)
            # Observed error: actual noisy executions at that age (drifted).
            observed_values = []
            for _ in range(repeats):
                (result,) = qpu.execute_batch(
                    [circuit], transpiled.footprint, shots, now=now, rng=rng
                )
                observed_values.append(ghz_observed_error(result.counts))
            points.append(
                GhzPoint(
                    device=name,
                    calibration_age_hours=float(age),
                    calculated_error=float(calculated),
                    observed_error=float(np.mean(observed_values)),
                )
            )

    correlation = correlate(
        [p.calculated_error for p in points],
        [p.observed_error for p in points],
    )
    return GhzValidationResult(points=points, correlation=correlation)


def render_fig4(result: GhzValidationResult | None = None) -> str:
    """Text rendering of the Fig. 4 scatter and statistics."""
    result = result if result is not None else fig4_ghz_validation()
    table = format_table(result.rows())
    return f"{table}\n\n{result.correlation.describe()}"
