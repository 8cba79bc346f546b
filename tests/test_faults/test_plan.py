"""Tests for the declarative fault-plan data model."""

import math

import pytest

from repro.faults import FaultPlan, OutageWindow


class TestOutageWindow:
    def test_permanent_normalizes_to_infinite_duration(self):
        window = OutageWindow(device="Belem", start=10.0, duration=50.0, permanent=True)
        assert math.isinf(window.duration)
        assert math.isinf(window.end)

    def test_infinite_duration_normalizes_to_permanent(self):
        window = OutageWindow(device="Belem", start=0.0)
        assert window.permanent

    def test_covers_is_half_open(self):
        window = OutageWindow(device="Belem", start=10.0, duration=20.0)
        assert not window.covers(9.99)
        assert window.covers(10.0)
        assert window.covers(29.99)
        assert not window.covers(30.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            OutageWindow(device="")
        with pytest.raises(ValueError):
            OutageWindow(device="Belem", start=-1.0)
        with pytest.raises(ValueError):
            OutageWindow(device="Belem", duration=0.0)


class TestFaultPlan:
    def test_empty_plan_is_disabled(self):
        plan = FaultPlan()
        assert not plan.enabled

    def test_any_device_fault_enables(self):
        assert FaultPlan(transient_failure_rate=0.1).enabled
        assert FaultPlan(result_timeout_rate=0.1).enabled
        assert FaultPlan(outages=(OutageWindow(device="Belem"),)).enabled
        assert FaultPlan(
            calibration_blackouts=(OutageWindow(device="Belem", duration=10.0),)
        ).enabled

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(transient_failure_rate=1.0)
        with pytest.raises(ValueError):
            FaultPlan(result_timeout_rate=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(result_delay_seconds=0.0)

    def test_describe_round_trips_to_json_types(self):
        import json

        plan = FaultPlan(
            seed=3,
            outages=(OutageWindow(device="Belem", start=5.0, duration=10.0),),
            transient_failure_rate=0.2,
        )
        described = plan.describe()
        assert described["transient_failure_rate"] == 0.2
        assert described["outages"][0]["device"] == "Belem"
        json.dumps(described)  # must be JSON-serializable

    def test_collections_accept_lists(self):
        plan = FaultPlan(outages=[OutageWindow(device="Belem")])
        assert isinstance(plan.outages, tuple)

    def test_blackouts_accept_lists(self):
        window = OutageWindow(device="x2", start=3.0, duration=4.0)
        plan = FaultPlan(calibration_blackouts=[window])
        assert plan.calibration_blackouts == (window,)
        assert plan.enabled

    def test_describe_lists_the_four_fault_families(self):
        described = FaultPlan(seed=2).describe()
        assert set(described) == {
            "seed",
            "outages",
            "transient_failure_rate",
            "result_timeout_rate",
            "result_delay_seconds",
            "calibration_blackouts",
        }
        assert described["outages"] == described["calibration_blackouts"] == []
