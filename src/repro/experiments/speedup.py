"""Section V speedup statistics: EQC throughput vs every single device.

The paper's abstract summarizes the VQE evaluation as a 10.5x average
speedup (at least 5.2x, up to 86x) over single-device training.  This driver
computes the analogous statistics from a Fig. 6 experiment result.
"""

from __future__ import annotations

from ..analysis.metrics import SpeedupSummary, speedup_summary
from ..analysis.reporting import format_kv, format_table
from .fig6_vqe import VQEExperimentResult

__all__ = ["speedup_from_result", "render_speedup"]


def speedup_from_result(result: VQEExperimentResult) -> SpeedupSummary:
    """Speedup statistics of the first EQC run against every single device."""
    return speedup_summary(result.eqc_mean_history, list(result.singles.values()))


def render_speedup(summary: SpeedupSummary) -> str:
    """Text rendering of the speedup summary."""
    rows = [
        {"device": label, "epochs_per_hour": rate}
        for label, rate in summary.single_device_rates.items()
    ]
    rows.append({"device": "EQC", "epochs_per_hour": summary.eqc_epochs_per_hour})
    stats = format_kv(
        {
            "average_speedup": summary.average_speedup,
            "min_speedup": summary.min_speedup,
            "max_speedup": summary.max_speedup,
        }
    )
    return f"{format_table(rows)}\n{stats}"
