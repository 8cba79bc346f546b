"""Run summaries (text + JSON) and the SLO arithmetic they share.

:func:`run_report` collapses a registry + tracer into one JSON-able dict —
counters, gauges, histogram quantiles, and a per-category span summary —
and :func:`render_text` formats it for a terminal.  The SLO helpers at the
bottom (:func:`percentile`, :func:`jains_index`) are the single home of the
percentile/fairness arithmetic: :meth:`CloudScheduler.metrics` uses them to
compute p50/p99 queue wait and the per-tenant fairness index that every
cell of the policy tournament (:mod:`repro.sched.tournament`) records.

Everything here is dependency-free (stdlib only) so the report can run in
any process, including CI smoke jobs with no numpy import cost.
"""

from __future__ import annotations

import json
from typing import Mapping, Sequence

from .registry import MetricsRegistry
from .trace import Tracer

__all__ = [
    "jains_index",
    "percentile",
    "sorted_percentile",
    "tournament_table",
    "run_report",
    "render_text",
    "write_report",
]


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation.

    Matches ``numpy.percentile(..., method="linear")`` so metrics computed
    here agree with any analysis notebook; returns 0.0 on empty input.
    """
    return sorted_percentile(sorted(map(float, values)), q)


def sorted_percentile(ordered: Sequence[float], q: float) -> float:
    """:func:`percentile` of values already in ascending order.

    Several percentiles of one sample then share a single sort.
    """
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    lower = int(rank)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = rank - lower
    return ordered[lower] + fraction * (ordered[upper] - ordered[lower])


def jains_index(values: Sequence[float]) -> float:
    """Jain's fairness index: ``(Σx)² / (n·Σx²)``, in ``(0, 1]``.

    1.0 means every party received an equal share; ``1/n`` means one party
    received everything.  Empty or all-zero inputs report 1.0 (a system
    that allocated nothing was not unfair to anyone).
    """
    values = [float(v) for v in values]
    if not values:
        return 1.0
    square_sum = sum(v * v for v in values)
    if square_sum == 0.0:
        return 1.0
    total = sum(values)
    return (total * total) / (len(values) * square_sum)


def _parse_metric_key(key: str) -> tuple[str, dict[str, str]]:
    """Split ``name{k=v,...}`` back into ``(name, labels)``."""
    if not key.endswith("}") or "{" not in key:
        return key, {}
    name, _, body = key.partition("{")
    labels: dict[str, str] = {}
    for pair in body[:-1].split(","):
        k, _, v = pair.partition("=")
        labels[k] = v
    return name, labels


def tournament_table(gauges: Mapping[str, float]) -> list[dict]:
    """Collect ``sched.tournament.*`` gauges into per-cell rows.

    :func:`repro.sched.tournament.publish_tournament` writes one gauge per
    (metric, policy, devices, tenants) combination; this inverts that into a
    sorted list of rows, one per grid cell, each carrying its coordinates
    plus every published metric — the shape :func:`render_text` formats as
    the tournament table.
    """
    cells: dict[tuple[int, int, str], dict] = {}
    prefix = "sched.tournament."
    for key, value in gauges.items():
        name, labels = _parse_metric_key(key)
        if not name.startswith(prefix) or "policy" not in labels:
            continue
        coord = (
            int(labels.get("devices", 0)),
            int(labels.get("tenants", 0)),
            labels["policy"],
        )
        row = cells.setdefault(
            coord,
            {"devices": coord[0], "tenants": coord[1], "policy": coord[2]},
        )
        row[name[len(prefix):]] = value
    return [cells[coord] for coord in sorted(cells)]


def run_report(
    registry: MetricsRegistry | None = None, tracer: Tracer | None = None
) -> dict:
    """One JSON-able summary of everything collected this run.

    Defaults to the global :data:`~repro.telemetry.TELEMETRY` instance when
    called with no arguments.
    """
    if registry is None or tracer is None:
        from .runtime import TELEMETRY

        registry = registry if registry is not None else TELEMETRY.registry
        tracer = tracer if tracer is not None else TELEMETRY.tracer
    histograms = {}
    for key, histogram in registry.histograms():
        data = histogram.to_dict()
        # The bucket vectors are quantile plumbing, not summary material.
        del data["bounds"], data["counts"]
        histograms[key] = data
    spans: dict[str, dict] = {}
    for event in tracer.export_payload()["events"]:
        duration = event.get("dur_ns")
        seconds = (
            duration / 1e9 if duration is not None else event.get("dur_s", 0.0) or 0.0
        )
        stats = spans.setdefault(event["cat"], {"spans": 0, "total_seconds": 0.0})
        stats["spans"] += 1
        stats["total_seconds"] += seconds
    return {
        "counters": dict(registry.counters()),
        "gauges": dict(registry.gauges()),
        "histograms": histograms,
        "spans_by_category": {k: spans[k] for k in sorted(spans)},
        "dropped_trace_events": tracer.dropped,
    }


def render_text(report: Mapping) -> str:
    """Format a :func:`run_report` dict for a terminal."""
    lines = ["=== telemetry report ==="]
    if report["counters"]:
        lines.append("counters:")
        for key, value in report["counters"].items():
            lines.append(f"  {key:<48} {value:,.0f}")
    if report["gauges"]:
        lines.append("gauges:")
        for key, value in report["gauges"].items():
            lines.append(f"  {key:<48} {value:,.4g}")
    if report["histograms"]:
        lines.append("histograms (p50 / p95 / p99):")
        for key, data in report["histograms"].items():
            lines.append(
                f"  {key:<48} n={data['count']:<8} "
                f"{data['p50']:.4g} / {data['p95']:.4g} / {data['p99']:.4g}"
            )
    rows = tournament_table(report.get("gauges", {}))
    if rows:
        lines.append(
            "tournament (devices x tenants x policy | epochs/h, p99 wait, "
            "rejected, fairness):"
        )
        for row in rows:
            lines.append(
                f"  {row['devices']:>4}d {row['tenants']:>6}t "
                f"{row['policy']:<16} "
                f"{row.get('epochs_per_hour', 0.0):8.2f} eph | "
                f"p99 {row.get('queue_wait_p99', 0.0):10,.0f}s | "
                f"rej {row.get('rejected_fraction', 0.0):6.1%} | "
                f"jain {row.get('fairness_jain', 0.0):.3f}"
            )
    if report["spans_by_category"]:
        lines.append("spans:")
        for cat, stats in report["spans_by_category"].items():
            lines.append(
                f"  {cat:<48} {stats['spans']} spans, "
                f"{stats['total_seconds']:.4g} s total"
            )
    if report.get("dropped_trace_events"):
        lines.append(f"dropped trace events: {report['dropped_trace_events']}")
    return "\n".join(lines)


def write_report(
    json_path,
    text_path=None,
    registry: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
) -> dict:
    """Render the run report to disk (JSON, optionally text); returns it."""
    report = run_report(registry, tracer)
    with open(json_path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    if text_path is not None:
        with open(text_path, "w") as handle:
            handle.write(render_text(report) + "\n")
    return report
