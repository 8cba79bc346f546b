"""Lowering a backend batch onto compiled programs.

Every execution backend receives the same payload — bound circuits or an
unbound :class:`~repro.circuit.sweep.ParameterSweep` — and every physics tail
(ideal sampling, analytic noise) starts from the same question: which
compiled programs run over which slot-angle rows, and where do the rows land
in the batch's flat order.  :func:`lower_batch` is the one place that answers
it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..circuit.circuit import QuantumCircuit
from ..circuit.sweep import ParameterSweep
from .cache import shared_program_cache
from .program import GateProgram, plan_slot_values, slot_values_from_circuits

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
    * A sweep lowers off its raw ``(points, P)`` matrix, binding nothing.
      Templates of one width, one measured register and one slot-gate table
      — a gradient job's — merge into a single program
      (:meth:`ProgramCache.merged`) whose rows are the sweep's flat order;
      templates that differ in any of the three run as a group of their own,
      on their own flat positions.

    Raises:
        ValueError: on an empty batch or a circuit with unbound parameters.
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
    programs = [cache.get_or_compile(template) for template in templates]
    jobs: dict[tuple, list[int]] = {}
    for offset, (template, program) in enumerate(zip(templates, programs)):
        uniform = (template.num_qubits, template.measured_qubits, program.slot_gates)
        jobs.setdefault(uniform, []).append(offset)
    stride = len(programs)
    groups = []
    for offsets in jobs.values():
        slots = [
            plan_slot_values(cache.plan_for(templates[offset], programs[offset]), batch.theta)
            for offset in offsets
        ]
        groups.append(
            (
                cache.merged([programs[offset] for offset in offsets]),
                np.stack(slots, axis=1).reshape(len(offsets) * len(batch.theta), -1),
                templates[offsets[0]],
                [start + offset for start in range(0, len(batch), stride) for offset in offsets],
            )
        )
    return groups
