"""Figure 9 — the weighted VQE sweep: no weights vs three weight bands.

The paper re-runs the Heisenberg VQE on EQC under four weighting
configurations — unweighted, [0.75, 1.25], [0.5, 1.5] and [0.25, 1.75] — and
reports, for each, the convergence epoch and the converged error relative to
the ground energy.  Wider bands converge faster (larger effective steps from
trusted devices) at some cost in final error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .._fields import require
from ..analysis.reporting import format_table
from ..baselines.ideal import IdealTrainer
from ..core.ensemble import EQCConfig, EQCEnsemble
from ..core.history import TrainingHistory
from ..core.objective import EnergyObjective
from ..core.weighting import BOUNDS_MODERATE, BOUNDS_TIGHT, BOUNDS_WIDE, WeightBounds
from ..devices.catalog import DEFAULT_VQE_FLEET
from ..vqa.vqe import VQEProblem, heisenberg_vqe_problem

__all__ = [
    "WeightedVQEConfig",
    "WeightedVQEResult",
    "run_fig9_weighted_vqe",
    "render_fig9",
]

#: The paper's four weighting configurations, labelled as in Fig. 9.
DEFAULT_SWEEP: tuple[tuple[str, WeightBounds | None], ...] = (
    ("no weighting", None),
    ("weights 0.75-1.25", BOUNDS_TIGHT),
    ("weights 0.50-1.50", BOUNDS_MODERATE),
    ("weights 0.25-1.75", BOUNDS_WIDE),
)


@dataclass(frozen=True)
class WeightedVQEConfig:
    """Knobs of the Fig. 9 sweep."""

    epochs: int = 250
    shots: int = 8192
    learning_rate: float = 0.1
    ensemble_devices: tuple[str, ...] = DEFAULT_VQE_FLEET
    sweep: tuple[tuple[str, WeightBounds | None], ...] = DEFAULT_SWEEP
    seed: int = 7
    record_every: int = 1
    run_ideal_reference: bool = True

    def __post_init__(self) -> None:
        for name in ("epochs", "shots", "record_every"):
            require(self, name, getattr(self, name), low=1, integer=True)
        require(self, "learning_rate", self.learning_rate, low=0.0, open_low=True)
        require(self, "seed", self.seed, low=0, integer=True)


@dataclass
class WeightedVQEResult:
    """Histories of the weighting sweep plus the ideal reference."""

    problem: VQEProblem
    ideal: TrainingHistory | None
    runs: dict[str, TrainingHistory]
    config: WeightedVQEConfig

    @property
    def reference_energy(self) -> float:
        """Ideal-solution energy when available, else the exact ground energy."""
        if self.ideal is not None:
            return self.ideal.final_loss()
        return self.problem.ground_energy

    def rows(self) -> list[dict[str, object]]:
        reference = self.reference_energy
        rows: list[dict[str, object]] = []
        for label, history in self.runs.items():
            rows.append(
                {
                    "weighting": label,
                    "final_energy": history.final_loss(),
                    "error_pct": 100.0 * history.error_vs(reference),
                    "convergence_epoch": history.convergence_epoch(reference),
                    "epochs_per_hour": history.epochs_per_hour(),
                }
            )
        return rows


def run_fig9_weighted_vqe(config: WeightedVQEConfig | None = None) -> WeightedVQEResult:
    """Execute the Fig. 9 weighting sweep."""
    config = config or WeightedVQEConfig()
    problem = heisenberg_vqe_problem()
    theta0 = problem.random_initial_parameters(seed=config.seed)

    ideal = None
    if config.run_ideal_reference:
        ideal = IdealTrainer(
            problem.estimator,
            shots=config.shots,
            learning_rate=config.learning_rate,
            seed=config.seed,
        ).train(theta0, num_epochs=config.epochs, record_every=config.record_every)

    runs: dict[str, TrainingHistory] = {}
    for label, bounds in config.sweep:
        ensemble = EQCEnsemble(
            EnergyObjective(problem.estimator),
            EQCConfig(
                device_names=config.ensemble_devices,
                shots=config.shots,
                learning_rate=config.learning_rate,
                weight_bounds=bounds,
                seed=config.seed,
                label=label,
            ),
        )
        runs[label] = ensemble.train(
            theta0, num_epochs=config.epochs, record_every=config.record_every
        )

    return WeightedVQEResult(problem=problem, ideal=ideal, runs=runs, config=config)


def render_fig9(result: WeightedVQEResult) -> str:
    """Text rendering of the Fig. 9 comparison."""
    header = (
        f"Reference energy: {result.reference_energy:.4f} "
        f"(ground: {result.problem.ground_energy:.4f})"
    )
    return f"{header}\n{format_table(result.rows())}"
