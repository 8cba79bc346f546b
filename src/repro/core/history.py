"""Training histories: what every trainer (EQC, single-device, ideal) records.

Histories are the common currency of the evaluation: the Fig. 6 / Fig. 9 /
Fig. 11 / Fig. 12 curves are epoch-indexed loss traces, the epochs-per-hour
bars come from the time stamps, and the error-vs-ground numbers come from the
tail of the trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..cloud.clock import SECONDS_PER_HOUR

__all__ = ["EpochRecord", "TrainingHistory"]


@dataclass(frozen=True)
class EpochRecord:
    """State of a training run at one epoch boundary.

    Attributes:
        epoch: 1-based epoch index.
        sim_time_hours: virtual wall-clock time when the epoch completed.
        loss: exact (noise-free) loss of the current parameters — the
            quantity plotted on the paper's energy/cost axes; the trainer
            scores it after the epoch (:meth:`EQCMasterNode.train` says when).
        parameters: snapshot of the parameter vector.
        weights: the per-device weights in force when the epoch completed
            (empty for single-device and ideal baselines).
        noisy_loss: optional running estimate of the loss as measured on
            hardware during the epoch (NaN when not tracked).
    """

    epoch: int
    sim_time_hours: float
    loss: float
    parameters: tuple[float, ...]
    weights: Mapping[str, float] = field(default_factory=dict)
    noisy_loss: float = float("nan")


@dataclass
class TrainingHistory:
    """A complete training trace plus run-level metadata."""

    label: str
    records: list[EpochRecord] = field(default_factory=list)
    device_names: tuple[str, ...] = ()
    total_updates: int = 0
    total_jobs: int = 0
    terminated_early: bool = False
    termination_reason: str = ""
    #: Completed fraction of the last recorded epoch.  1.0 for ordinary
    #: histories; a truncated update budget (``target_updates`` not a
    #: multiple of the cycle) records its tail as a partial final epoch and
    #: sets this so throughput metrics do not count it as a full epoch.
    final_epoch_fraction: float = 1.0
    metadata: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    def add(self, record: EpochRecord) -> None:
        if self.records and record.epoch <= self.records[-1].epoch:
            raise ValueError("epoch records must be appended in increasing epoch order")
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def epochs(self) -> np.ndarray:
        return np.array([r.epoch for r in self.records], dtype=int)

    @property
    def losses(self) -> np.ndarray:
        return np.array([r.loss for r in self.records], dtype=float)

    @property
    def times_hours(self) -> np.ndarray:
        return np.array([r.sim_time_hours for r in self.records], dtype=float)

    @property
    def final_parameters(self) -> tuple[float, ...]:
        if not self.records:
            raise ValueError("history is empty")
        return self.records[-1].parameters

    # ------------------------------------------------------------------
    def final_loss(self, tail: int = 10) -> float:
        """Average loss over the last ``tail`` epochs (robust to jitter)."""
        if not self.records:
            raise ValueError("history is empty")
        losses = self.losses[-max(1, tail):]
        return float(np.mean(losses))

    def best_loss(self) -> float:
        """The minimum loss reached at any recorded epoch."""
        if not self.records:
            raise ValueError("history is empty")
        return float(np.min(self.losses))

    def total_hours(self) -> float:
        """Virtual wall-clock duration of the recorded run."""
        if not self.records:
            return 0.0
        return float(self.records[-1].sim_time_hours)

    def epochs_per_hour(self) -> float:
        """Average training throughput (the paper's Fig. 6 right panel).

        Uses the last recorded epoch number (not the record count) so
        sub-sampled histories (``record_every > 1``) report the true rate,
        and discounts a partial final epoch by ``final_epoch_fraction`` so
        a truncated update budget cannot inflate the rate.
        """
        hours = self.total_hours()
        if hours <= 0:
            return float("inf")
        if not self.records:
            return 0.0
        effective_epochs = self.records[-1].epoch - 1.0 + self.final_epoch_fraction
        return effective_epochs / hours

    def error_vs(self, reference: float, tail: int = 10) -> float:
        """Relative error of the converged loss against a reference value.

        Matches the paper's error metric: deviation of the obtained energy
        from the ideal ground energy, normalized by its magnitude, in
        percent-friendly fractional form.
        """
        final = self.final_loss(tail)
        denom = abs(reference) if reference != 0 else 1.0
        return abs(final - reference) / denom

    def convergence_epoch(
        self,
        reference: float,
        tolerance: float = 0.05,
        patience: int = 5,
    ) -> int | None:
        """First epoch from which the loss stays within ``tolerance`` of ``reference``.

        ``tolerance`` is relative to ``|reference|``; the loss must remain
        inside the band for ``patience`` consecutive records to count, which
        filters out single lucky epochs.  Returns ``None`` when the run never
        converges (e.g. terminated single-device experiments).
        """
        if not self.records:
            return None
        denominator = abs(reference) if reference != 0 else 1.0
        within = np.abs(self.losses - reference) / denominator <= tolerance
        run = 0
        for index, ok in enumerate(within):
            run = run + 1 if ok else 0
            if run >= patience:
                return int(self.records[index - patience + 1].epoch)
        return None

    def summary(self, reference: float | None = None) -> dict[str, float | str | None]:
        """A compact dictionary used by benchmark reporting."""
        out: dict[str, float | str | None] = {
            "label": self.label,
            "epochs": float(len(self.records)),
            "total_hours": self.total_hours(),
            "epochs_per_hour": self.epochs_per_hour(),
            "final_loss": self.final_loss() if self.records else float("nan"),
            "terminated_early": str(self.terminated_early),
        }
        if reference is not None and self.records:
            out["error_vs_reference"] = self.error_vs(reference)
            out["convergence_epoch"] = self.convergence_epoch(reference)
        return out
