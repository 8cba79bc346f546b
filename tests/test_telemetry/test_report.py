"""Run reports and the SLO arithmetic (percentile, Jain's fairness index)."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.telemetry import (
    MetricsRegistry,
    Tracer,
    jains_index,
    percentile,
    render_text,
    run_report,
    write_report,
)
from repro.telemetry.report import sorted_percentile


class TestPercentile:
    def test_matches_numpy_linear(self):
        rng = np.random.default_rng(9)
        values = list(rng.uniform(0, 100, size=57))
        for q in (0, 10, 50, 90, 99, 100):
            assert percentile(values, q) == pytest.approx(
                float(np.percentile(values, q))
            )

    def test_edge_cases(self):
        assert percentile([], 50) == 0.0
        assert percentile([4.2], 99) == 4.2
        assert sorted_percentile([], 50) == 0.0
        assert sorted_percentile([4.2], 99) == 4.2

    @given(
        values=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=60),
        q=st.floats(0.0, 100.0),
    )
    def test_one_sorted_copy_serves_every_percentile(self, values, q):
        ordered = sorted(values)
        assert sorted_percentile(ordered, q) == percentile(values, q)
        assert sorted_percentile(ordered, q) == pytest.approx(
            float(np.percentile(values, q, method="linear")), rel=1e-9, abs=1e-9
        )


class TestJainsIndex:
    def test_equal_shares_give_one(self):
        assert jains_index([3.0, 3.0, 3.0, 3.0]) == pytest.approx(1.0)

    def test_single_winner_gives_one_over_n(self):
        assert jains_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_empty_and_all_zero_report_one(self):
        assert jains_index([]) == 1.0
        assert jains_index([0.0, 0.0]) == 1.0


class TestRunReport:
    def _populated(self):
        registry = MetricsRegistry()
        registry.counter("engine.executions").inc(4)
        registry.gauge("sched.queue_depth", device="a").set(2)
        registry.histogram("wait").observe(0.5)
        tracer = Tracer()
        tracer.add_span("x", "engine", 0, 2_000_000)
        tracer.add_sim_span("job", "sched", "a", 0.0, 3.0)
        return registry, tracer

    def test_report_structure(self):
        registry, tracer = self._populated()
        report = run_report(registry, tracer)
        assert report["counters"]["engine.executions"] == 4.0
        assert report["gauges"]["sched.queue_depth{device=a}"] == 2.0
        wait = report["histograms"]["wait"]
        assert wait["count"] == 1 and "bounds" not in wait and "p99" in wait
        assert report["spans_by_category"]["engine"]["spans"] == 1
        assert report["spans_by_category"]["engine"]["total_seconds"] == pytest.approx(
            0.002
        )
        assert report["spans_by_category"]["sched"]["total_seconds"] == pytest.approx(
            3.0
        )
        assert report["dropped_trace_events"] == 0

    def test_render_text_mentions_every_section(self):
        registry, tracer = self._populated()
        text = render_text(run_report(registry, tracer))
        for token in ("counters:", "gauges:", "histograms", "spans:"):
            assert token in text
        assert "engine.executions" in text

    def test_write_report_round_trips(self, tmp_path):
        registry, tracer = self._populated()
        json_path = tmp_path / "report.json"
        text_path = tmp_path / "report.txt"
        report = write_report(json_path, text_path, registry, tracer)
        assert json.loads(json_path.read_text()) == report
        assert "telemetry report" in text_path.read_text()
