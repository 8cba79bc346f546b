"""Tracer: Chrome trace-event export, schema validation, span nesting."""

from __future__ import annotations

import json

import pytest

from repro.telemetry import SIM_PID, Tracer, validate_chrome_trace


def _chrome(tracer: Tracer) -> dict:
    trace = tracer.to_chrome()
    # Round-trip through JSON: the export must be fully serializable.
    return json.loads(json.dumps(trace))


class TestTracerExport:
    def test_wall_spans_normalize_to_zero_origin(self):
        tracer = Tracer()
        tracer.add_span("outer", "test", 1_000_000, 5_000_000)
        tracer.add_span("inner", "test", 2_000_000, 3_000_000)
        trace = _chrome(tracer)
        body = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert min(e["ts"] for e in body) == 0.0
        outer = next(e for e in body if e["name"] == "outer")
        assert outer["dur"] == pytest.approx(4000.0)  # ns -> us

    def test_sim_spans_get_named_lanes_under_sim_pid(self):
        tracer = Tracer()
        tracer.add_sim_span("job", "sched", "Belem", 10.0, 5.0)
        tracer.add_sim_span("job", "sched", "Quito", 0.0, 2.0)
        trace = _chrome(tracer)
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert all(e["pid"] == SIM_PID for e in spans)
        lane_names = {
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert {"Belem", "Quito"} <= lane_names

    def test_span_context_manager_records_on_exit(self):
        tracer = Tracer()
        with tracer.span("work", "test", args={"k": 1}):
            pass
        assert len(tracer) == 1
        trace = _chrome(tracer)
        span = next(e for e in trace["traceEvents"] if e["ph"] == "X")
        assert span["name"] == "work" and span["args"] == {"k": 1}

    def test_event_cap_counts_drops(self):
        tracer = Tracer(max_events=2)
        for index in range(5):
            tracer.add_span(f"s{index}", "test", 0, 1)
        assert len(tracer) == 2
        assert tracer.dropped == 3
        assert _chrome(tracer)["otherData"]["dropped_events"] == 3

    @pytest.mark.parametrize(
        "record, names",
        [
            (lambda t: t.add_span("a", "test", 0, 10), {0: "main"}),
            (lambda t: t.add_sim_span("job", "sched", "Belem", 0.0, 1.0), {SIM_PID: "simulated timeline"}),
        ],
        ids=["wall-only", "sim-only"],
    )
    def test_a_process_is_named_only_when_it_has_events(self, record, names):
        tracer = Tracer()
        record(tracer)
        trace = _chrome(tracer)
        processes = {
            e["pid"]: e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert processes == names

    def test_instant_exports_as_a_thread_scoped_marker(self):
        tracer = Tracer()
        tracer.instant("mark", "test", args={"n": 2})
        (marker,) = [e for e in _chrome(tracer)["traceEvents"] if e["ph"] != "M"]
        assert marker["ph"] == "i" and marker["s"] == "t"
        assert marker["pid"] == 0 and "dur" not in marker
        assert marker["args"] == {"n": 2}

    def test_export_payload_is_a_copy_of_the_events(self):
        tracer = Tracer()
        tracer.add_span("a", "test", 0, 10)
        payload = tracer.export_payload()
        payload["events"].clear()
        assert len(tracer) == 1
        assert tracer.export_payload()["events"][0]["name"] == "a"

    def test_reset_clears_events_and_the_drop_count(self):
        tracer = Tracer(max_events=1)
        tracer.add_span("a", "test", 0, 1)
        tracer.add_span("b", "test", 0, 1)
        assert tracer.dropped == 1
        tracer.reset()
        assert len(tracer) == 0 and tracer.dropped == 0
        tracer.add_span("c", "test", 0, 1)
        assert len(tracer) == 1

    def test_write_produces_loadable_json(self, tmp_path):
        tracer = Tracer()
        tracer.add_span("a", "test", 0, 10)
        path = tmp_path / "trace.json"
        tracer.write(path)
        loaded = json.loads(path.read_text())
        assert validate_chrome_trace(loaded)["events"] >= 1


class TestValidateChromeTrace:
    def test_accepts_properly_nested_spans(self):
        tracer = Tracer()
        tracer.add_span("outer", "a", 0, 100)
        tracer.add_span("inner", "a", 10, 60)
        tracer.add_span("sibling", "b", 60, 90)
        summary = validate_chrome_trace(_chrome(tracer))
        assert summary["categories"]["a"]["spans"] == 2
        assert summary["categories"]["b"]["spans"] == 1

    def test_rejects_partially_overlapping_spans(self):
        trace = {
            "traceEvents": [
                {"name": "a", "ph": "X", "pid": 0, "tid": 0, "ts": 0.0, "dur": 50.0},
                {"name": "b", "ph": "X", "pid": 0, "tid": 0, "ts": 25.0, "dur": 50.0},
            ]
        }
        with pytest.raises(ValueError, match="outside its enclosing span"):
            validate_chrome_trace(trace)

    def test_overlap_on_distinct_tracks_is_fine(self):
        trace = {
            "traceEvents": [
                {"name": "a", "ph": "X", "pid": 0, "tid": 0, "ts": 0.0, "dur": 50.0},
                {"name": "b", "ph": "X", "pid": 0, "tid": 1, "ts": 25.0, "dur": 50.0},
            ]
        }
        assert validate_chrome_trace(trace)["tracks"] == 2

    def test_rejects_missing_fields_and_bad_phases(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({})
        with pytest.raises(ValueError, match="missing 'pid'"):
            validate_chrome_trace(
                {"traceEvents": [{"name": "a", "ph": "X", "tid": 0}]}
            )
        with pytest.raises(ValueError, match="unsupported phase"):
            validate_chrome_trace(
                {"traceEvents": [{"name": "a", "ph": "B", "pid": 0, "tid": 0}]}
            )
        with pytest.raises(ValueError, match="invalid dur"):
            validate_chrome_trace(
                {
                    "traceEvents": [
                        {"name": "a", "ph": "X", "pid": 0, "tid": 0, "ts": 0.0}
                    ]
                }
            )
