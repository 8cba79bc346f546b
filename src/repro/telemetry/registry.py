"""Metrics: counters, gauges, fixed-bucket histograms.

The registry is the numeric half of the observability layer (spans live in
:mod:`repro.telemetry.trace`).  Two design constraints shape it:

* **dependency-free** — metrics are plain Python objects and
  :meth:`MetricsRegistry.snapshot` is a plain dict of floats/lists, ready to
  JSON-encode without importing anything;
* **fixed buckets** — histograms never store samples, only per-bucket
  counts plus exact count/sum/min/max, so memory is bounded no matter how
  hot the instrumented path is, and p50/p95/p99 come from linear
  interpolation inside the covering bucket (clamped to the observed
  min/max, so single-sample histograms report the sample exactly).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator, Mapping, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "default_time_buckets",
    "metric_key",
]

#: Quantiles every histogram reports in snapshots and run reports.
REPORTED_QUANTILES = (0.5, 0.95, 0.99)


def default_time_buckets() -> tuple[float, ...]:
    """Geometric upper bucket edges covering ~1 µs to ~10^6 s.

    Five edges per decade keeps quantile interpolation error under ~30% of
    the value anywhere in the range, which is plenty for latency SLOs, at
    61 buckets per histogram.
    """
    edges: list[float] = []
    for decade in range(-6, 6):
        for step in (1.0, 1.6, 2.5, 4.0, 6.3):
            edges.append(step * 10.0**decade)
    edges.append(1e6)
    return tuple(edges)


_DEFAULT_TIME_BUCKETS = default_time_buckets()


def metric_key(name: str, labels: Mapping[str, object] | None = None) -> str:
    """The registry key for a metric: ``name`` or ``name{k=v,...}``.

    Labels are sorted so call sites never have to agree on keyword order.
    """
    if not labels:
        return name
    body = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{body}}}"


class Counter:
    """A monotone accumulator."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value."""

    __slots__ = ("value", "updates")

    def __init__(self) -> None:
        self.value = 0.0
        self.updates = 0

    def set(self, value: float) -> None:
        self.value = float(value)
        self.updates += 1


class Histogram:
    """A fixed-bucket histogram with exact count/sum/min/max sidecars.

    ``bounds`` are strictly increasing *upper* bucket edges; one overflow
    bucket catches everything above the last edge.
    """

    __slots__ = ("bounds", "counts", "count", "total", "min_value", "max_value")

    def __init__(self, bounds: Sequence[float] | None = None) -> None:
        bounds = tuple(bounds) if bounds is not None else _DEFAULT_TIME_BUCKETS
        if len(bounds) < 1 or any(a >= b for a, b in zip(bounds, bounds[1:])):
            raise ValueError("histogram bounds must be strictly increasing")
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min_value = float("inf")
        self.max_value = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min_value:
            self.min_value = value
        if value > self.max_value:
            self.max_value = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (``0 <= q <= 1``) via bucket interpolation."""
        if self.count == 0:
            return 0.0
        if q <= 0.0:
            return self.min_value
        if q >= 1.0:
            return self.max_value
        target = q * self.count
        cumulative = 0.0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= target:
                lower = self.bounds[index - 1] if index > 0 else self.min_value
                upper = (
                    self.bounds[index]
                    if index < len(self.bounds)
                    else self.max_value
                )
                lower = max(lower, self.min_value)
                upper = min(upper, self.max_value)
                if upper <= lower:
                    return lower
                return lower + (target - previous) / bucket_count * (upper - lower)
        return self.max_value  # pragma: no cover - cumulative covers count

    def to_dict(self) -> dict:
        quantiles = {f"p{int(q * 100)}": self.quantile(q) for q in REPORTED_QUANTILES}
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
            "min": self.min_value if self.count else 0.0,
            "max": self.max_value if self.count else 0.0,
            "mean": self.mean,
            **quantiles,
        }


class MetricsRegistry:
    """A named collection of counters, gauges, and histograms.

    Metric accessors create on first use, so instrumentation sites never
    need registration ceremony; the ``bounds`` of a histogram are fixed by
    whichever call site touches it first (all sites for one metric must
    agree — a mismatch raises).
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str, **labels) -> Counter:
        key = metric_key(name, labels)
        metric = self._counters.get(key)
        if metric is None:
            metric = self._counters[key] = Counter()
        return metric

    def gauge(self, name: str, **labels) -> Gauge:
        key = metric_key(name, labels)
        metric = self._gauges.get(key)
        if metric is None:
            metric = self._gauges[key] = Gauge()
        return metric

    def histogram(
        self, name: str, bounds: Sequence[float] | None = None, **labels
    ) -> Histogram:
        key = metric_key(name, labels)
        metric = self._histograms.get(key)
        if metric is None:
            metric = self._histograms[key] = Histogram(bounds)
        elif bounds is not None and tuple(float(b) for b in bounds) != metric.bounds:
            raise ValueError(f"histogram {key!r} already exists with other bounds")
        return metric

    # ------------------------------------------------------------------
    def counters(self) -> Iterator[tuple[str, float]]:
        for key in sorted(self._counters):
            yield key, self._counters[key].value

    def gauges(self) -> Iterator[tuple[str, float]]:
        for key in sorted(self._gauges):
            yield key, self._gauges[key].value

    def histograms(self) -> Iterator[tuple[str, Histogram]]:
        for key in sorted(self._histograms):
            yield key, self._histograms[key]

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """A plain-dict copy safe to pickle and JSON-encode."""
        return {
            "counters": {k: c.value for k, c in sorted(self._counters.items())},
            "gauges": {
                k: {"value": g.value, "updates": g.updates}
                for k, g in sorted(self._gauges.items())
            },
            "histograms": {
                k: h.to_dict() for k, h in sorted(self._histograms.items())
            },
        }

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
