"""Lowering a backend batch onto compiled programs.

Every execution backend receives the same payload — bound circuits or an
unbound :class:`~repro.circuit.sweep.ParameterSweep` — and every physics tail
(ideal sampling, analytic noise) starts from the same question: which
compiled programs run over which slot-angle rows, and where do the rows land
in the batch's flat order.  :func:`lower_batch` is the one place that answers
it.

A sweep's answer depends on its templates alone, and a training run sends the
same template tuple wave after wave with only the ``(points, P)`` matrix new.
So the lookups, parameter plans, grouping and merged programs are planned
once per template tuple (:meth:`ProgramCache.lowering`), and a wave costs one
masked multiply-add per group (:meth:`GroupPlan.slot_values`), byte-equal to
mapping the matrix through every template's :class:`ParameterPlan` alone.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..circuit.circuit import QuantumCircuit
from ..circuit.sweep import ParameterSweep
from .cache import shared_program_cache
from .program import GateProgram, slot_values_from_circuits

__all__ = ["lower_batch"]


def lower_batch(
    batch: Sequence[QuantumCircuit] | ParameterSweep,
) -> list[tuple[GateProgram, np.ndarray, QuantumCircuit, list[int]]]:
    """A batch as ``(program, slot angles, representative, positions)`` groups.

    Each group is one :func:`~repro.engine.executor.execute_program` call:
    ``slot angles`` is its ``(rows, S)`` matrix, ``representative`` a circuit
    carrying the group's width and measured register, and ``positions[r]``
    the flat batch position row ``r`` answers.

    * Bound circuits partition by gate structure
      (:attr:`QuantumCircuit.structure_key`), angles read straight off the
      instruction records.
    * A sweep lowers off its raw ``(points, P)`` matrix, binding nothing,
      through its template tuple's memoized plan
      (:meth:`ProgramCache.lowering`).  Templates of one width, one measured
      register and one slot-gate table — a gradient job's — merge into a
      single program (:meth:`ProgramCache.merged`) whose rows are the
      sweep's flat order; templates that differ in any of the three run as a
      group of their own, on their own flat positions.

    Raises:
        ValueError: on an empty batch, a circuit with unbound parameters, or
            a sweep matrix whose width is not the templates' parameter count.
    """
    cache = shared_program_cache()
    if not isinstance(batch, ParameterSweep):
        circuits = list(batch)
        if not circuits:
            raise ValueError("a batch needs at least one circuit")
        partitions: dict[object, list[int]] = {}
        for index, circuit in enumerate(circuits):
            if not circuit.is_bound:
                raise ValueError("circuit has unbound parameters")
            partitions.setdefault(circuit.structure_key, []).append(index)
        groups = []
        for indices in partitions.values():
            members = [circuits[i] for i in indices]
            program = cache.get_or_compile(members[0])
            groups.append(
                (program, slot_values_from_circuits(program, members), members[0], indices)
            )
        return groups

    templates = batch.templates
    starts = range(0, len(batch), len(templates))
    return [
        (
            group.program,
            group.slot_values(batch.theta),
            templates[group.templates[0]],
            [start + offset for start in starts for offset in group.templates],
        )
        for group in cache.lowering(templates)
    ]
