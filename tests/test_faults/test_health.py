"""Tests for the per-device circuit breaker."""

import math

import pytest

from repro.faults import BreakerState, DeviceHealthTracker


def make_tracker(**kwargs):
    kwargs.setdefault("failure_threshold", 3)
    kwargs.setdefault("recovery_seconds", 100.0)
    kwargs.setdefault("probe_successes", 1)
    kwargs.setdefault("max_reopens", 2)
    return DeviceHealthTracker(**kwargs)


class TestValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            DeviceHealthTracker(failure_threshold=0)
        with pytest.raises(ValueError):
            DeviceHealthTracker(recovery_seconds=0.0)
        with pytest.raises(ValueError):
            DeviceHealthTracker(probe_successes=0)
        with pytest.raises(ValueError):
            DeviceHealthTracker(max_reopens=0)


class TestStateMachine:
    def test_closed_until_threshold(self):
        tracker = make_tracker()
        tracker.record_failure("Belem", 1.0)
        tracker.record_failure("Belem", 2.0)
        assert tracker.state("Belem") is BreakerState.CLOSED
        assert tracker.allow("Belem", 3.0)
        tracker.record_failure("Belem", 3.0)
        assert tracker.state("Belem") is BreakerState.OPEN
        assert not tracker.allow("Belem", 3.0)

    def test_success_resets_consecutive_failures(self):
        tracker = make_tracker()
        tracker.record_failure("Belem", 1.0)
        tracker.record_failure("Belem", 2.0)
        tracker.record_success("Belem", 3.0)
        tracker.record_failure("Belem", 4.0)
        tracker.record_failure("Belem", 5.0)
        assert tracker.state("Belem") is BreakerState.CLOSED

    def test_open_to_half_open_after_recovery(self):
        tracker = make_tracker()
        for t in (1.0, 2.0, 3.0):
            tracker.record_failure("Belem", t)
        assert tracker.retry_at("Belem") == 103.0
        assert not tracker.allow("Belem", 50.0)
        assert tracker.allow("Belem", 103.0)  # the probe
        assert tracker.state("Belem") is BreakerState.HALF_OPEN

    def test_probe_success_closes(self):
        tracker = make_tracker()
        for t in (1.0, 2.0, 3.0):
            tracker.record_failure("Belem", t)
        tracker.allow("Belem", 200.0)
        tracker.record_success("Belem", 210.0)
        assert tracker.state("Belem") is BreakerState.CLOSED
        assert tracker.allow("Belem", 211.0)

    def test_probe_failure_reopens(self):
        tracker = make_tracker()
        for t in (1.0, 2.0, 3.0):
            tracker.record_failure("Belem", t)
        tracker.allow("Belem", 200.0)
        tracker.record_failure("Belem", 210.0)
        assert tracker.state("Belem") is BreakerState.OPEN
        assert tracker.retry_at("Belem") == 310.0

    def test_max_reopens_marks_dead(self):
        tracker = make_tracker(max_reopens=2)
        for t in (1.0, 2.0, 3.0):
            tracker.record_failure("Belem", t)
        # Two probe failures exhaust max_reopens.
        tracker.allow("Belem", 200.0)
        tracker.record_failure("Belem", 210.0)
        assert not tracker.is_dead("Belem")
        tracker.allow("Belem", 400.0)
        tracker.record_failure("Belem", 410.0)
        assert tracker.is_dead("Belem")
        assert not tracker.allow("Belem", 1e9)
        assert math.isinf(tracker.retry_at("Belem"))

    def test_mark_dead_direct(self):
        tracker = make_tracker()
        tracker.mark_dead("Belem", 5.0, reason="permanent outage")
        assert tracker.is_dead("Belem")
        assert not tracker.allow("Belem", 1e9)
        assert tracker.live_devices(["Belem", "Bogota"]) == ["Bogota"]


class TestTransitionLog:
    def test_full_sequence_recorded(self):
        tracker = make_tracker()
        for t in (1.0, 2.0, 3.0):
            tracker.record_failure("Belem", t)
        tracker.allow("Belem", 150.0)
        tracker.record_success("Belem", 160.0)
        sequence = [(t.from_state, t.to_state) for t in tracker.transitions]
        assert sequence == [
            ("closed", "open"),
            ("open", "half_open"),
            ("half_open", "closed"),
        ]
        assert tracker.transitions[0].time == 3.0

    def test_summary_is_json_friendly(self):
        import json

        tracker = make_tracker()
        tracker.record_failure("Belem", 1.0)
        tracker.mark_dead("Bogota", 2.0)
        summary = tracker.summary()
        json.dumps(summary)
        assert summary["devices"]["Bogota"]["dead"]
        assert summary["devices"]["Belem"]["failures_total"] == 1
