"""Cross-layer observability: metrics registry, tracing spans, run reports.

The telemetry layer gives the whole stack — compiled engine, execution
backends, the cloud provider, the discrete-event scheduler, and EQC
training — one shared, dependency-free substrate for quantitative
visibility:

* :class:`MetricsRegistry` — counters, gauges, and fixed-bucket histograms
  (with p50/p95/p99 extraction) whose snapshots are plain dicts;
* :class:`Tracer` — wall-clock spans plus simulated-clock spans (per-device
  lanes), exported as Chrome trace-event JSON loadable in Perfetto or
  ``chrome://tracing``;
* :mod:`repro.telemetry.report` — text/JSON run summaries and the
  percentile/fairness arithmetic behind the scheduler's SLO metrics.

Collection is off by default and gated behind one branch per hot call site
(see :data:`TELEMETRY`); enable with ``REPRO_TELEMETRY=1``, ``TELEMETRY
.enable()``, or the scoped :func:`telemetry_session`.  Telemetry never
consumes RNG, so seeded histories are bit-exact with collection on or off.
"""

from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_time_buckets,
    metric_key,
)
from .report import jains_index, percentile, render_text, run_report, write_report
from .runtime import TELEMETRY, Telemetry, telemetry_session
from .trace import SIM_PID, Tracer, validate_chrome_trace

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "default_time_buckets",
    "metric_key",
    "Telemetry",
    "TELEMETRY",
    "telemetry_session",
    "Tracer",
    "SIM_PID",
    "validate_chrome_trace",
    "jains_index",
    "percentile",
    "run_report",
    "render_text",
    "write_report",
]
