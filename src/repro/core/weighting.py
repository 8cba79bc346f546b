"""The EQC adaptive weighting system (paper Section IV).

Each client node computes an analytic estimate ``PCorrect`` of its device's
probability of error-free execution (Eq. 2) from the *reported* calibration
snapshot and the transpiled circuit's structure.  The master then linearly
rescales the ensemble's current ``PCorrect`` values into a configured weight
band (e.g. ``[0.5, 1.5]``) and multiplies each incoming gradient's step size
by its client's weight (Eq. 4) — so devices that are currently trustworthy
move the parameters further, while drifting or poorly-connected devices are
dampened.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from ..devices.qpu import CircuitFootprint, success_probability
from ..noise.calibration import CalibrationSnapshot

__all__ = [
    "estimate_p_correct",
    "WeightBounds",
    "WeightingConfig",
    "normalize_weights",
    "UNWEIGHTED",
    "BOUNDS_TIGHT",
    "BOUNDS_MODERATE",
    "BOUNDS_WIDE",
]


def estimate_p_correct(
    calibration: CalibrationSnapshot,
    footprint: CircuitFootprint,
) -> float:
    """The paper's Eq. 2 estimate of error-free execution probability.

    Identical in form to the device model's ground truth, but evaluated on
    the *reported* (possibly stale) calibration and without the latent
    cross-talk term — exactly the information a real client has access to.
    """
    return success_probability(calibration, footprint, crosstalk=0.0, connectivity=0.0)


@dataclass(frozen=True)
class WeightBounds:
    """A closed interval ``[low, high]`` that weights are normalized into."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.low) and self.low >= 0):
            raise ValueError(f"low must be finite and non-negative (got {self.low!r})")
        if not (math.isfinite(self.high) and self.high >= self.low):
            raise ValueError(f"high must be finite and >= low (got {self.high!r})")

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.low + self.high)

    @property
    def width(self) -> float:
        return self.high - self.low

    def __str__(self) -> str:
        return f"[{self.low:g}, {self.high:g}]"


#: The weighting configurations evaluated in the paper (Fig. 9 / Fig. 12).
UNWEIGHTED = None
BOUNDS_TIGHT = WeightBounds(0.75, 1.25)
BOUNDS_MODERATE = WeightBounds(0.5, 1.5)
BOUNDS_WIDE = WeightBounds(0.25, 1.75)


@dataclass(frozen=True)
class WeightingConfig:
    """How the master converts ``PCorrect`` values into gradient weights.

    Attributes:
        bounds: the band weights are normalized into; ``None`` disables
            weighting entirely (every gradient gets weight 1, the paper's
            "no weighting system" baseline).
        refresh_on_every_update: when True (default), ``PCorrect`` values are
            recomputed at each job submission so calibration changes and
            drifting transpilation costs are tracked in real time; when
            False the values computed at ensemble-formation time are frozen
            (the ablation in ``benchmarks/bench_ablation_drift.py``).
    """

    bounds: WeightBounds | None = BOUNDS_MODERATE
    refresh_on_every_update: bool = True

    @property
    def enabled(self) -> bool:
        return self.bounds is not None

    def describe(self) -> str:
        if not self.enabled:
            return "unweighted"
        return f"weights {self.bounds}"


def normalize_weights(
    p_correct_by_client: Mapping[str, float],
    bounds: WeightBounds | None,
) -> dict[str, float]:
    """Linearly rescale the ensemble's ``PCorrect`` values into ``bounds``.

    Follows the paper's description (Section V-D): the maximum ``PCorrect``
    maps to the upper bound, the minimum to the lower bound, everything else
    linearly in between.  With no weighting every client gets 1.0; when all
    values coincide (for example a single-client ensemble) every client gets
    the midpoint of the band.
    """
    if not p_correct_by_client:
        return {}
    if bounds is None:
        return {name: 1.0 for name in p_correct_by_client}

    values = list(p_correct_by_client.values())
    for name, value in p_correct_by_client.items():
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"PCorrect for {name!r} is {value}, outside [0, 1]")
    low, high = min(values), max(values)
    if high - low < 1e-12:
        return {name: bounds.midpoint for name in p_correct_by_client}
    scale = bounds.width / (high - low)
    return {
        name: bounds.low + (value - low) * scale
        for name, value in p_correct_by_client.items()
    }
