"""Unbound circuit batches: templates times a parameter matrix.

A parameter-shift gradient job runs the same few template circuits at two or
three parameter points.  Binding a fresh :class:`QuantumCircuit` per
(point, template) only for the execution engine to read the angles straight
back out is pure overhead, so the job travels from the objective to the
device as a :class:`ParameterSweep` — the templates plus the raw
``(points, P)`` matrix — and every layer that accepts a batch of bound
circuits accepts a sweep in its place.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .circuit import QuantumCircuit

__all__ = ["ParameterSweep", "checked_theta"]


def checked_theta(theta, label: object) -> np.ndarray:
    """``theta`` as a new non-empty float ``(points, P)`` matrix, or a
    ``ValueError`` naming ``label`` (and a non-finite angle's index and point)."""
    matrix = np.array(theta, dtype=float, ndmin=2)
    if matrix.ndim != 2 or matrix.shape[0] < 1:
        raise ValueError(f"{label}: need a non-empty (points, P) theta, got {np.shape(theta)}")
    if not all(map(math.isfinite, matrix.ravel().tolist())):  # cheaper than numpy at job sizes
        point, index = np.argwhere(~np.isfinite(matrix))[0]
        bad = f"non-finite angle {matrix[point, index]}"
        raise ValueError(f"{label}: {bad} for parameter index {index} (point {point})")
    return matrix


class ParameterSweep:
    """``points x templates`` circuits, described without binding any.

    The flat circuit order is **point-major with templates inner** —
    ``[point0 x templates..., point1 x templates..., ...]`` — which is the
    order :func:`repro.vqa.gradient.parameter_shift_batch` binds in, so a
    sweep and its bound circuits occupy the same device job slots and
    consume an RNG stream identically.  Column ``j`` of ``theta`` is the
    ``j``-th parameter of every template in first-appearance order (the
    ``assign_by_order`` convention).

    The matrix is validated once, here (:func:`checked_theta`): a NaN or
    infinite angle would otherwise travel to the engine and come back from
    the sampler as a "probability vector sums to zero".

    Args:
        templates: the parameterized circuits, all over the same parameters.
        theta: ``(points, P)`` parameter values (a single vector is one point).
        label: names the batch in validation errors (e.g. the gradient task
            it serves); formatted only when an error is raised.
    """

    __slots__ = ("templates", "theta")

    def __init__(
        self,
        templates: Sequence[QuantumCircuit],
        theta: np.ndarray,
        label: object = "sweep",
    ) -> None:
        self.templates = tuple(templates)
        if not self.templates:
            raise ValueError(f"{label}: a sweep needs at least one template")
        matrix = checked_theta(theta, label)
        for template in self.templates:
            if len(template.parameters) != matrix.shape[1]:
                raise ValueError(
                    f"{label}: template {template.name!r} has "
                    f"{len(template.parameters)} parameters but theta has "
                    f"{matrix.shape[1]} columns"
                )
        matrix.setflags(write=False)
        self.theta = matrix

    @classmethod
    def stacked(cls, sweeps: Sequence["ParameterSweep"]) -> "ParameterSweep":
        """The points of ``sweeps`` in order, at the first's templates, unchecked."""
        sweep = cls.__new__(cls)
        sweep.templates, sweep.theta = sweeps[0].templates, np.vstack([s.theta for s in sweeps])
        sweep.theta.setflags(write=False)
        return sweep

    def __len__(self) -> int:
        """Number of circuits the sweep stands for."""
        return self.theta.shape[0] * len(self.templates)

    def __repr__(self) -> str:
        return (
            f"ParameterSweep(points={self.theta.shape[0]}, "
            f"templates={len(self.templates)}, parameters={self.theta.shape[1]})"
        )

    def bound_circuits(self) -> list[QuantumCircuit]:
        """Every circuit of the sweep, bound, in flat order.

        For inspection and for comparing against bound-circuit execution;
        nothing on the execution path calls this.
        """
        return [
            template.assign_by_order(row.tolist())
            for row in self.theta
            for template in self.templates
        ]
