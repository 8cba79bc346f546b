"""Span tracing with Chrome trace-event JSON export.

The tracer records two clock domains into one trace file:

* **wall spans** — real compute time, stamped with ``time.time_ns()``, on
  one Chrome process track (:data:`WALL_PID`, named ``main``).
* **sim spans** — events on the *simulated* clock (scheduler service
  windows, calibration downtime, EQC epochs).  They live under a dedicated
  ``pid`` (:data:`SIM_PID`) with one named lane (``tid``) per device, so
  the discrete-event schedule renders as a per-device Gantt chart next to
  the wall-clock tracks.

Exports are standard Chrome trace-event JSON — load the file at
``chrome://tracing`` or https://ui.perfetto.dev.  Wall timestamps are
normalized so the earliest event sits at t=0; sim timestamps map simulated
seconds to trace microseconds and start at the simulation origin.

The tracer never touches any RNG and never blocks: events above
``max_events`` are counted in :attr:`Tracer.dropped` and discarded, so an
unexpectedly hot instrumentation site cannot exhaust memory.
"""

from __future__ import annotations

import json
import time
from typing import Mapping, Sequence

from .._fields import require

__all__ = ["Tracer", "SIM_PID", "validate_chrome_trace"]

#: Chrome pid hosting the wall-clock spans.
WALL_PID = 0

#: Chrome pid hosting all simulated-clock lanes.
SIM_PID = 9999

_PH_ALLOWED = {"X", "M", "i", "I"}


class _SpanHandle:
    """Context manager recording one wall span on exit."""

    __slots__ = ("_tracer", "_name", "_cat", "_args", "_start_ns")

    def __init__(self, tracer: "Tracer", name: str, cat: str, args) -> None:
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._args = args

    def __enter__(self) -> "_SpanHandle":
        self._start_ns = time.time_ns()
        return self

    def __exit__(self, *exc_info) -> None:
        self._tracer.add_span(
            self._name, self._cat, self._start_ns, time.time_ns(), self._args
        )


class Tracer:
    """Collects spans and exports them as Chrome trace events."""

    def __init__(self, max_events: int = 200_000) -> None:
        self.max_events = int(require(self, "max_events", max_events, low=0, integer=True))
        self.dropped = 0
        self._events: list[dict] = []

    def __len__(self) -> int:
        return len(self._events)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def span(self, name: str, cat: str = "app", args: Mapping | None = None):
        """Context manager timing a wall-clock span."""
        return _SpanHandle(self, name, cat, dict(args) if args else None)

    def add_span(
        self,
        name: str,
        cat: str,
        start_ns: int,
        end_ns: int,
        args: Mapping | None = None,
    ) -> None:
        """Record one completed wall-clock span (timestamps from time.time_ns)."""
        self._append(
            {
                "name": name,
                "cat": cat,
                "domain": "wall",
                "pid": WALL_PID,
                "tid": 0,
                "ts_ns": int(start_ns),
                "dur_ns": max(0, int(end_ns) - int(start_ns)),
                "args": dict(args) if args else None,
            }
        )

    def add_sim_span(
        self,
        name: str,
        cat: str,
        lane: str,
        start_seconds: float,
        duration_seconds: float,
        args: Mapping | None = None,
    ) -> None:
        """Record one simulated-clock span on the named lane."""
        self._append(
            {
                "name": name,
                "cat": cat,
                "domain": "sim",
                "pid": SIM_PID,
                "tid": str(lane),
                "ts_s": float(start_seconds),
                "dur_s": max(0.0, float(duration_seconds)),
                "args": dict(args) if args else None,
            }
        )

    def instant(self, name: str, cat: str = "app", args: Mapping | None = None) -> None:
        """Record a zero-duration wall-clock marker."""
        self._append(
            {
                "name": name,
                "cat": cat,
                "domain": "wall",
                "pid": WALL_PID,
                "tid": 0,
                "ts_ns": time.time_ns(),
                "dur_ns": None,
                "args": dict(args) if args else None,
            }
        )

    def _append(self, event: dict) -> None:
        if len(self._events) >= self.max_events:
            self.dropped += 1
            return
        self._events.append(event)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def export_payload(self) -> dict:
        """The recorded events as plain dicts, before Chrome formatting."""
        return {"events": list(self._events)}

    def to_chrome(self) -> dict:
        """The trace as a Chrome trace-event JSON object."""
        wall_origin = min(
            (e["ts_ns"] for e in self._events if e["domain"] == "wall"),
            default=0,
        )
        lane_tids: dict[str, int] = {}
        events: list[dict] = []

        if any(e["domain"] == "wall" for e in self._events):
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": WALL_PID,
                    "tid": 0,
                    "args": {"name": "main"},
                }
            )
        if any(e["domain"] == "sim" for e in self._events):
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": SIM_PID,
                    "tid": 0,
                    "args": {"name": "simulated timeline"},
                }
            )

        body: list[dict] = []
        for event in self._events:
            if event["domain"] == "sim":
                lane = event["tid"]
                tid = lane_tids.get(lane)
                if tid is None:
                    tid = lane_tids[lane] = len(lane_tids)
                    events.append(
                        {
                            "name": "thread_name",
                            "ph": "M",
                            "pid": SIM_PID,
                            "tid": tid,
                            "args": {"name": lane},
                        }
                    )
                ts = event["ts_s"] * 1e6
                dur = event["dur_s"] * 1e6
            else:
                tid = event["tid"]
                ts = (event["ts_ns"] - wall_origin) / 1e3
                dur = None if event["dur_ns"] is None else event["dur_ns"] / 1e3
            out = {
                "name": event["name"],
                "cat": event["cat"],
                "ph": "i" if dur is None else "X",
                "pid": event["pid"],
                "tid": tid,
                "ts": ts,
            }
            if dur is not None:
                out["dur"] = dur
            else:
                out["s"] = "t"
            if event["args"]:
                out["args"] = event["args"]
            body.append(out)
        body.sort(key=lambda e: (e["pid"], e["tid"], e["ts"], -e.get("dur", 0.0)))
        return {
            "traceEvents": events + body,
            "displayTimeUnit": "ms",
            "otherData": {"dropped_events": self.dropped},
        }

    def write(self, path) -> None:
        """Write the Chrome trace JSON to ``path``."""
        with open(path, "w") as handle:
            json.dump(self.to_chrome(), handle)

    def reset(self) -> None:
        self._events.clear()
        self.dropped = 0


def validate_chrome_trace(trace: Mapping) -> dict:
    """Validate a Chrome trace object; returns a per-category summary.

    Checks the structural schema (required keys and types per event phase)
    and span-nesting consistency: on every ``(pid, tid)`` track, complete
    events must be properly nested — each span either disjoint from or fully
    contained in any span it overlaps.  Raises ``ValueError`` on the first
    violation.
    """
    events = trace.get("traceEvents")
    if not isinstance(events, (list, tuple)):
        raise ValueError("trace must carry a traceEvents list")
    categories: dict[str, dict] = {}
    tracks: dict[tuple, list[tuple[float, float, str]]] = {}
    for index, event in enumerate(events):
        if not isinstance(event, Mapping):
            raise ValueError(f"event {index} is not an object")
        ph = event.get("ph")
        if ph not in _PH_ALLOWED:
            raise ValueError(f"event {index} has unsupported phase {ph!r}")
        for key in ("name", "pid", "tid"):
            if key not in event:
                raise ValueError(f"event {index} is missing {key!r}")
        if ph == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            raise ValueError(f"event {index} has invalid ts {ts!r}")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(f"event {index} has invalid dur {dur!r}")
            tracks.setdefault((event["pid"], event["tid"]), []).append(
                (float(ts), float(dur), str(event["name"]))
            )
            stats = categories.setdefault(
                str(event.get("cat", "")), {"spans": 0, "total_dur_us": 0.0}
            )
            stats["spans"] += 1
            stats["total_dur_us"] += float(dur)

    tolerance = 1e-6
    for track, spans in tracks.items():
        spans.sort(key=lambda item: (item[0], -item[1]))
        stack: list[tuple[float, str]] = []  # (end, name)
        for start, dur, name in spans:
            end = start + dur
            while stack and stack[-1][0] <= start + tolerance:
                stack.pop()
            if stack and end > stack[-1][0] + tolerance:
                raise ValueError(
                    f"span {name!r} on track {track} ends at {end:.3f} "
                    f"outside its enclosing span (ends {stack[-1][0]:.3f})"
                )
            stack.append((end, name))
    return {
        "events": len(events),
        "tracks": len(tracks),
        "categories": categories,
    }
