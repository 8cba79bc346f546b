"""Figure 11 — QAOA MaxCut: eight single devices vs unweighted EQC.

The paper optimizes the 2-parameter QAOA circuit of Fig. 10 for the 4-node
ring MaxCut on eight IBMQ devices independently and on the unweighted EQC
ensemble of the same eight devices, for 50 iterations.  The plotted quantity
is the MaxCut cost (the expectation of the Eq. 7 Hamiltonian, normalized per
edge so the axis lives in [-1, 0]).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .._fields import require
from ..analysis.reporting import format_table
from ..baselines.ideal import IdealTrainer
from ..baselines.single_device import DEFAULT_TERMINATION_HOURS, SingleDeviceTrainer
from ..core.ensemble import EQCConfig, EQCEnsemble
from ..core.history import TrainingHistory
from ..core.objective import EnergyObjective
from ..core.weighting import WeightBounds
from ..devices.catalog import DEFAULT_QAOA_FLEET
from ..vqa.qaoa import QAOAProblem, ring_maxcut_qaoa_problem

__all__ = ["QAOAExperimentConfig", "QAOAExperimentResult", "run_fig11_qaoa", "render_fig11"]


@dataclass(frozen=True)
class QAOAExperimentConfig:
    """Knobs of the Fig. 11 experiment (paper defaults unless noted)."""

    iterations: int = 50
    shots: int = 8192
    learning_rate: float = 0.1
    devices: tuple[str, ...] = DEFAULT_QAOA_FLEET
    #: Fig. 11 uses the unweighted ensemble; Fig. 12 sweeps the bounds.
    weight_bounds: WeightBounds | None = None
    eqc_runs: int = 3
    seed: int = 11
    max_single_device_hours: float = DEFAULT_TERMINATION_HOURS
    record_every: int = 1
    run_ideal_reference: bool = True

    def __post_init__(self) -> None:
        for name in ("iterations", "shots", "eqc_runs", "record_every"):
            require(self, name, getattr(self, name), low=1, integer=True)
        for name in ("learning_rate", "max_single_device_hours"):
            require(self, name, getattr(self, name), low=0.0, open_low=True)
        require(self, "seed", self.seed, low=0, integer=True)


@dataclass
class QAOAExperimentResult:
    """Histories of the Fig. 11 experiment."""

    problem: QAOAProblem
    ideal: TrainingHistory | None
    singles: dict[str, TrainingHistory]
    eqc_runs: list[TrainingHistory]
    config: QAOAExperimentConfig

    # ------------------------------------------------------------------
    @property
    def eqc_history(self) -> TrainingHistory:
        return self.eqc_runs[0]

    def normalized_final_cost(self, history: TrainingHistory) -> float:
        """Converged per-edge MaxCut cost (the paper's Fig. 11/12 y-axis)."""
        return self.problem.normalized_cost(history.final_loss())

    def best_normalized_cost(self, history: TrainingHistory) -> float:
        """Best (lowest) per-edge MaxCut cost reached during training."""
        return self.problem.normalized_cost(history.best_loss())

    def rows(self) -> list[dict[str, object]]:
        rows: list[dict[str, object]] = []
        items: list[tuple[str, TrainingHistory]] = []
        if self.ideal is not None:
            items.append(("ideal", self.ideal))
        items.extend(self.singles.items())
        for index, run in enumerate(self.eqc_runs):
            items.append((f"EQC(run {index})", run))
        for label, history in items:
            rows.append(
                {
                    "system": label,
                    "final_cost": self.normalized_final_cost(history),
                    "best_cost": self.best_normalized_cost(history),
                    "approx_ratio": self.problem.approximation_ratio(history.final_loss()),
                    "run_hours": history.total_hours(),
                    "iterations_per_hour": history.epochs_per_hour(),
                }
            )
        return rows


def run_fig11_qaoa(config: QAOAExperimentConfig | None = None) -> QAOAExperimentResult:
    """Execute the Fig. 11 experiment end to end."""
    config = config or QAOAExperimentConfig()
    problem = ring_maxcut_qaoa_problem()
    theta0 = problem.random_initial_parameters(seed=config.seed)

    ideal = None
    if config.run_ideal_reference:
        ideal = IdealTrainer(
            problem.estimator,
            shots=config.shots,
            learning_rate=config.learning_rate,
            seed=config.seed,
        ).train(theta0, num_epochs=config.iterations, record_every=config.record_every)

    singles: dict[str, TrainingHistory] = {}
    for device in config.devices:
        trainer = SingleDeviceTrainer(
            EnergyObjective(problem.estimator),
            device,
            shots=config.shots,
            learning_rate=config.learning_rate,
            seed=config.seed,
            max_wall_hours=config.max_single_device_hours,
        )
        singles[device] = trainer.train(
            theta0, num_epochs=config.iterations, record_every=config.record_every
        )

    eqc_histories: list[TrainingHistory] = []
    for run in range(config.eqc_runs):
        ensemble = EQCEnsemble(
            EnergyObjective(problem.estimator),
            EQCConfig(
                device_names=config.devices,
                shots=config.shots,
                learning_rate=config.learning_rate,
                weight_bounds=config.weight_bounds,
                seed=config.seed + run,
                label=f"EQC QAOA(run {run})",
            ),
        )
        eqc_histories.append(
            ensemble.train(theta0, num_epochs=config.iterations, record_every=config.record_every)
        )

    return QAOAExperimentResult(
        problem=problem,
        ideal=ideal,
        singles=singles,
        eqc_runs=eqc_histories,
        config=config,
    )


def render_fig11(result: QAOAExperimentResult) -> str:
    """Text rendering of the Fig. 11 comparison."""
    header = (
        f"Optimal cut: {result.problem.optimal_cut_value:.0f} "
        f"(bits {result.problem.optimal_cut_bits}); ground energy "
        f"{result.problem.ground_energy:.3f}"
    )
    return f"{header}\n{format_table(result.rows())}"
