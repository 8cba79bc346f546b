"""Figure 12 — weighted vs unweighted QAOA EQC, and the minimum-cost ranking.

The paper compares the unweighted EQC QAOA against the [0.5, 1.5] and
[0.25, 1.75] weightings, and ranks the best MaxCut cost attained by each
weighted/unweighted EQC variant against the eight single devices.  Weighting
moves EQC from second-worst (unweighted) to within reach of the top single
devices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .._fields import require
from ..analysis.reporting import format_table
from ..core.ensemble import EQCConfig, EQCEnsemble
from ..core.history import TrainingHistory
from ..core.objective import EnergyObjective
from ..core.weighting import BOUNDS_MODERATE, BOUNDS_WIDE, WeightBounds
from ..devices.catalog import DEFAULT_QAOA_FLEET
from ..vqa.qaoa import ring_maxcut_qaoa_problem
from .fig11_qaoa import QAOAExperimentConfig, QAOAExperimentResult, run_fig11_qaoa

__all__ = [
    "WeightedQAOAConfig",
    "WeightedQAOAResult",
    "run_fig12_weighted_qaoa",
    "render_fig12",
]

DEFAULT_SWEEP: tuple[tuple[str, WeightBounds | None], ...] = (
    ("no weighting", None),
    ("weights 0.50-1.50", BOUNDS_MODERATE),
    ("weights 0.25-1.75", BOUNDS_WIDE),
)


@dataclass(frozen=True)
class WeightedQAOAConfig:
    """Knobs of the Fig. 12 sweep."""

    iterations: int = 50
    shots: int = 8192
    learning_rate: float = 0.1
    devices: tuple[str, ...] = DEFAULT_QAOA_FLEET
    sweep: tuple[tuple[str, WeightBounds | None], ...] = DEFAULT_SWEEP
    seed: int = 11
    record_every: int = 1
    #: Also run the single-device baselines so the Fig. 12 ranking panel can
    #: be reproduced; reuse a Fig. 11 result instead when one is available.
    include_single_devices: bool = True

    def __post_init__(self) -> None:
        for name in ("iterations", "shots", "record_every"):
            require(self, name, getattr(self, name), low=1, integer=True)
        require(self, "learning_rate", self.learning_rate, low=0.0, open_low=True)
        require(self, "seed", self.seed, low=0, integer=True)


@dataclass
class WeightedQAOAResult:
    """Weighted-EQC histories plus (optionally) the single-device baselines."""

    runs: dict[str, TrainingHistory]
    baseline: QAOAExperimentResult | None
    config: WeightedQAOAConfig

    def problem(self):
        if self.baseline is not None:
            return self.baseline.problem
        return ring_maxcut_qaoa_problem()

    def sweep_rows(self) -> list[dict[str, object]]:
        problem = self.problem()
        rows: list[dict[str, object]] = []
        for label, history in self.runs.items():
            rows.append(
                {
                    "weighting": label,
                    "final_cost": problem.normalized_cost(history.final_loss()),
                    "best_cost": problem.normalized_cost(history.best_loss()),
                    "approx_ratio": problem.approximation_ratio(history.final_loss()),
                }
            )
        return rows

    def ranking_rows(self) -> list[dict[str, object]]:
        """Best-cost ranking of every system (Fig. 12 right panel)."""
        problem = self.problem()
        entries: list[tuple[str, float]] = []
        for label, history in self.runs.items():
            entries.append((f"EQC {label}", problem.normalized_cost(history.best_loss())))
        if self.baseline is not None:
            for device, history in self.baseline.singles.items():
                entries.append((device, problem.normalized_cost(history.best_loss())))
            entries.append(
                (
                    "EQC unweighted (fig11)",
                    problem.normalized_cost(self.baseline.eqc_history.best_loss()),
                )
            )
        entries.sort(key=lambda item: item[1])
        return [
            {"rank": rank + 1, "system": label, "best_cost": cost}
            for rank, (label, cost) in enumerate(entries)
        ]


def run_fig12_weighted_qaoa(
    config: WeightedQAOAConfig | None = None,
    baseline: QAOAExperimentResult | None = None,
) -> WeightedQAOAResult:
    """Execute the Fig. 12 sweep (reusing a Fig. 11 result when supplied)."""
    config = config or WeightedQAOAConfig()
    problem = ring_maxcut_qaoa_problem()
    theta0 = problem.random_initial_parameters(seed=config.seed)

    if baseline is None and config.include_single_devices:
        baseline = run_fig11_qaoa(
            QAOAExperimentConfig(
                iterations=config.iterations,
                shots=config.shots,
                learning_rate=config.learning_rate,
                devices=config.devices,
                eqc_runs=1,
                seed=config.seed,
                record_every=config.record_every,
                run_ideal_reference=False,
            )
        )

    runs: dict[str, TrainingHistory] = {}
    for label, bounds in config.sweep:
        ensemble = EQCEnsemble(
            EnergyObjective(problem.estimator),
            EQCConfig(
                device_names=config.devices,
                shots=config.shots,
                learning_rate=config.learning_rate,
                weight_bounds=bounds,
                seed=config.seed,
                label=f"EQC QAOA {label}",
            ),
        )
        runs[label] = ensemble.train(
            theta0, num_epochs=config.iterations, record_every=config.record_every
        )

    return WeightedQAOAResult(runs=runs, baseline=baseline, config=config)


def render_fig12(result: WeightedQAOAResult) -> str:
    """Text rendering of both Fig. 12 panels."""
    sweep = format_table(result.sweep_rows())
    ranking = format_table(result.ranking_rows())
    return f"Weighting sweep\n{sweep}\n\nBest-cost ranking\n{ranking}"
