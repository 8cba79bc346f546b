"""Metrics registry: counters, gauges, histograms, and snapshots."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.telemetry import (
    Histogram,
    MetricsRegistry,
    default_time_buckets,
    metric_key,
)


class TestMetricKey:
    def test_plain_name(self):
        assert metric_key("engine.executions") == "engine.executions"

    def test_labels_are_sorted(self):
        assert (
            metric_key("qpu.jobs", {"tenant": "eqc", "device": "Belem"})
            == "qpu.jobs{device=Belem,tenant=eqc}"
        )
        assert metric_key("x", {"b": 1, "a": 2}) == metric_key("x", {"a": 2, "b": 1})


class TestCountersAndGauges:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("jobs").inc()
        registry.counter("jobs").inc(4)
        assert dict(registry.counters()) == {"jobs": 5.0}

    def test_labelled_counters_are_distinct(self):
        registry = MetricsRegistry()
        registry.counter("jobs", device="a").inc()
        registry.counter("jobs", device="b").inc(2)
        assert dict(registry.counters()) == {
            "jobs{device=a}": 1.0,
            "jobs{device=b}": 2.0,
        }

    def test_gauge_keeps_last_value(self):
        registry = MetricsRegistry()
        registry.gauge("depth").set(3)
        registry.gauge("depth").set(7)
        assert dict(registry.gauges()) == {"depth": 7.0}
        assert registry.gauge("depth").updates == 2


class TestHistogram:
    def test_default_bounds_are_strictly_increasing(self):
        bounds = default_time_buckets()
        assert all(a < b for a, b in zip(bounds, bounds[1:]))

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram([1.0, 1.0, 2.0])

    def test_single_sample_quantiles_are_exact(self):
        h = Histogram()
        h.observe(0.25)
        for q in (0.0, 0.5, 0.95, 0.99, 1.0):
            assert h.quantile(q) == 0.25

    def test_quantiles_track_numpy_within_bucket_resolution(self):
        rng = np.random.default_rng(5)
        samples = rng.lognormal(mean=-4.0, sigma=1.0, size=4000)
        h = Histogram()
        for value in samples:
            h.observe(value)
        for q in (0.5, 0.95, 0.99):
            estimate = h.quantile(q)
            exact = float(np.quantile(samples, q))
            assert estimate == pytest.approx(exact, rel=0.35)

    def test_exact_sidecars(self):
        h = Histogram(bounds=(1.0, 2.0))
        for value in (0.5, 1.5, 10.0):
            h.observe(value)
        data = h.to_dict()
        assert data["count"] == 3
        assert data["sum"] == pytest.approx(12.0)
        assert data["min"] == 0.5
        assert data["max"] == 10.0
        assert data["counts"] == [1, 1, 1]

    def test_bounds_conflict_raises(self):
        registry = MetricsRegistry()
        registry.histogram("lat", bounds=(1.0, 2.0))
        with pytest.raises(ValueError, match="other bounds"):
            registry.histogram("lat", bounds=(1.0, 3.0))


class TestSnapshot:
    def _populated(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("jobs", device="a").inc(3)
        registry.gauge("depth").set(2)
        h = registry.histogram("wait")
        for value in (0.001, 0.01, 0.1):
            h.observe(value)
        return registry

    def test_snapshot_is_plain_and_picklable(self):
        snapshot = self._populated().snapshot()
        clone = pickle.loads(pickle.dumps(snapshot))
        assert clone == snapshot
        # Only plain builtin containers and scalars, all the way down.
        def check(node):
            assert isinstance(node, (dict, list, str, int, float))
            if isinstance(node, dict):
                for key, value in node.items():
                    assert isinstance(key, str)
                    check(value)
            elif isinstance(node, list):
                for value in node:
                    check(value)
        check(snapshot)

    def test_reset_empties_the_registry(self):
        registry = self._populated()
        registry.reset()
        assert len(registry) == 0
