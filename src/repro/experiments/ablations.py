"""Ablation studies of EQC's design choices.

These are not paper figures; they probe the EQC design decisions:

* **Weight refresh** — recomputing ``PCorrect`` at every job vs freezing the
  values captured at ensemble-formation time.
* **Ensemble size** — throughput and converged error as the fleet grows.
"""

from __future__ import annotations

from typing import Sequence

from ..core.ensemble import EQCConfig, EQCEnsemble
from ..core.objective import EnergyObjective
from ..devices.catalog import DEFAULT_VQE_FLEET
from ..vqa.vqe import heisenberg_vqe_problem

__all__ = [
    "run_weight_refresh_ablation",
    "run_ensemble_size_sweep",
]


def run_weight_refresh_ablation(
    epochs: int = 60,
    device_names: Sequence[str] = DEFAULT_VQE_FLEET,
    shots: int = 4096,
    seed: int = 7,
) -> list[dict[str, object]]:
    """Live PCorrect refresh vs weights frozen at ensemble formation."""
    problem = heisenberg_vqe_problem()
    theta0 = problem.random_initial_parameters(seed=seed)
    rows = []
    for label, refresh in (("refresh every job", True), ("frozen at formation", False)):
        history = EQCEnsemble(
            EnergyObjective(problem.estimator),
            EQCConfig(
                device_names=tuple(device_names),
                shots=shots,
                seed=seed,
                refresh_weights=refresh,
                label=label,
            ),
        ).train(theta0, num_epochs=epochs)
        rows.append(
            {
                "weight_refresh": label,
                "final_energy": history.final_loss(),
                "epochs_per_hour": history.epochs_per_hour(),
            }
        )
    return rows


def run_ensemble_size_sweep(
    sizes: Sequence[int] = (1, 2, 4, 6, 8, 10),
    epochs: int = 40,
    shots: int = 4096,
    seed: int = 7,
) -> list[dict[str, object]]:
    """Throughput and error as the ensemble grows device by device."""
    problem = heisenberg_vqe_problem()
    theta0 = problem.random_initial_parameters(seed=seed)
    rows = []
    for size in sizes:
        if not 1 <= size <= len(DEFAULT_VQE_FLEET):
            raise ValueError(f"ensemble size {size} outside the available fleet")
        devices = DEFAULT_VQE_FLEET[:size]
        history = EQCEnsemble(
            EnergyObjective(problem.estimator),
            EQCConfig(
                device_names=devices,
                shots=shots,
                seed=seed,
                label=f"EQC[{size}]",
            ),
        ).train(theta0, num_epochs=epochs)
        rows.append(
            {
                "ensemble_size": size,
                "devices": ",".join(devices),
                "final_energy": history.final_loss(),
                "epochs_per_hour": history.epochs_per_hour(),
                "hours": history.total_hours(),
            }
        )
    return rows
