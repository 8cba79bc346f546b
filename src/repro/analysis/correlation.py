"""Correlation statistics for the PCorrect validation (paper Fig. 4)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["CorrelationReport", "correlate", "linear_fit"]


@dataclass(frozen=True)
class CorrelationReport:
    """Pearson correlation + linear fit between predicted and observed values."""

    pearson_r: float
    p_value: float
    r_squared: float
    slope: float
    intercept: float
    num_points: int

    def describe(self) -> str:
        return (
            f"r={self.pearson_r:.3f} (p={self.p_value:.2e}), "
            f"R^2={self.r_squared:.3f}, fit y={self.slope:.2f}x+{self.intercept:.2f} "
            f"over {self.num_points} points"
        )


def linear_fit(x: Sequence[float], y: Sequence[float]) -> tuple[float, float, float]:
    """Least-squares line ``y = slope * x + intercept`` and its R^2."""
    x_arr = np.asarray(x, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    if x_arr.size != y_arr.size or x_arr.size < 2:
        raise ValueError("need two equal-length samples with at least 2 points")
    slope, intercept = np.polyfit(x_arr, y_arr, 1)
    predicted = slope * x_arr + intercept
    residual = np.sum((y_arr - predicted) ** 2)
    total = np.sum((y_arr - np.mean(y_arr)) ** 2)
    r_squared = 1.0 - residual / total if total > 0 else 0.0
    return float(slope), float(intercept), float(r_squared)


def correlate(predicted: Sequence[float], observed: Sequence[float]) -> CorrelationReport:
    """Pearson correlation and linear fit between two samples.

    The paper's Fig. 4 reports a Pearson correlation of 0.784 (two-tailed
    p = 1.28e-7) and a linear-fit R^2 of 0.605 between the calculated and
    observed GHZ error rates; this function produces the analogous numbers
    for the reproduction.
    """
    x = np.asarray(predicted, dtype=float)
    y = np.asarray(observed, dtype=float)
    if x.size != y.size or x.size < 3:
        raise ValueError("need two equal-length samples with at least 3 points")
    r, p_value = pearson(x, y)
    slope, intercept, r_squared = linear_fit(x, y)
    return CorrelationReport(
        pearson_r=r,
        p_value=p_value,
        r_squared=r_squared,
        slope=slope,
        intercept=intercept,
        num_points=int(x.size),
    )


def pearson(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Pearson's r and its two-sided p-value (no correlation, normal samples).

    r is the dot product of the centred samples, each scaled by its largest
    magnitude and then by its norm.  Under the null hypothesis r**2 follows
    Beta(1/2, (n - 2)/2), so p = I_{1 - r**2}((n - 2)/2, 1/2).
    """
    xm, ym = x - x.mean(), y - y.mean()
    with np.errstate(invalid="ignore"):  # a constant sample: r is NaN
        xm, ym = xm / np.max(np.abs(xm)), ym / np.max(np.abs(ym))
        r = float(np.dot(xm / math.sqrt(np.dot(xm, xm)), ym / math.sqrt(np.dot(ym, ym))))
    if math.isnan(r):
        return r, r
    r = min(1.0, max(-1.0, r))
    return r, _beta_regularized((x.size - 2) / 2, 0.5, (1.0 - abs(r)) * (1.0 + abs(r)))


def _beta_regularized(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta function I_x(a, b), 0 <= x <= 1."""
    if x <= 0.0 or x >= 1.0:
        return min(1.0, max(0.0, x))
    log_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _beta_fraction(a, b, x) / a
    return 1.0 - math.exp(log_front) * _beta_fraction(b, a, 1.0 - x) / b


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b), by Lentz's method."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        even = m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m))
        odd = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))
        for term in (even, odd):
            d, c = 1.0 + term * d, 1.0 + term / c
            d, c = 1.0 / (d if abs(d) > tiny else tiny), (c if abs(c) > tiny else tiny)
            h *= d * c
        if abs(d * c - 1.0) < 1e-16:
            break
    return h
