"""Structure-keyed caching of compiled gate programs.

Compilation is pure: a program depends only on a circuit's *structure*
(gate names + wires, parameter values excluded), which is exactly what
:attr:`QuantumCircuit.structure_key` captures.  A parameter-shift sweep —
thousands of bindings of one ansatz — therefore compiles once and executes
from then on as pure array math.

The module-level :func:`shared_program_cache` is the default instance the
execution backends, the mixing path, and the energy estimators all share, so
any two subsystems running the same ansatz reuse one compilation.
"""

from __future__ import annotations

import time
import weakref
from typing import Sequence

from ..circuit.circuit import QuantumCircuit
from ..telemetry import TELEMETRY as _telemetry
from .compiler import compile_circuit
from .program import (
    GateProgram,
    GroupPlan,
    group_plan,
    merge_programs,
    parameter_plan,
)

__all__ = ["ProgramCache", "shared_program_cache"]


class ProgramCache:
    """A structure-keyed cache of :class:`GateProgram` objects."""

    def __init__(self) -> None:
        self._entries: dict[tuple, GateProgram] = {}
        #: Merged programs, keyed by the identities of the cached programs
        #: they fold (stable for as long as ``_entries`` holds those).
        self._merged: dict[tuple[int, ...], GateProgram] = {}
        #: Sweep lowerings (:meth:`lowering`), keyed by the identities of a
        #: template tuple: ``(weak refs, structure keys, group plans)``.  A
        #: plan depends on the templates' Parameter objects, not just their
        #: structure, so it is never shared between template objects.
        self._lowerings: dict[tuple[int, ...], tuple] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def get_or_compile(self, circuit: QuantumCircuit) -> GateProgram:
        """Return the compiled program for ``circuit``'s structure.

        Any circuit sharing the structure (bound or parameterized) yields the
        same entry; callers pair the program with their own parameter plan or
        slot extraction.
        """
        key = circuit.structure_key
        program = self._entries.get(key)
        if program is not None:
            self._hit(1)
            return program
        self.misses += 1
        start = time.perf_counter() if _telemetry.enabled else 0.0
        program = compile_circuit(circuit)
        self._entries[key] = program
        if _telemetry.enabled:
            registry = _telemetry.registry
            registry.counter("engine.program_cache.misses").inc()
            registry.histogram("engine.compile_seconds").observe(
                time.perf_counter() - start
            )
            registry.gauge("engine.program_cache.size").set(len(self._entries))
        return program

    def _hit(self, count: int) -> None:
        self.hits += count
        if _telemetry.enabled:
            _telemetry.registry.counter("engine.program_cache.hits").inc(count)

    def merged(self, programs: Sequence[GateProgram]) -> GateProgram:
        """The merged program of a sweep's templates (one program: itself).

        ``programs`` are the templates' own entries (:meth:`get_or_compile`);
        what they share is found once
        (:func:`~repro.engine.program.merge_programs`) and memoized, so a
        gradient job's measurement templates execute as one program from the
        second job on.
        """
        key = tuple(map(id, programs))
        merged = self._merged.get(key)
        if merged is None:
            merged = self._merged[key] = merge_programs(programs)
        return merged

    def stats(self) -> dict[str, float]:
        """Hit/miss/size counters (cache effectiveness at a glance)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": len(self._entries),
            "hit_rate": self.hit_rate,
        }

    def publish(self, registry=None, prefix: str = "engine.program_cache") -> None:
        """Write the current :meth:`stats` into a metrics registry as gauges."""
        if registry is None:
            registry = _telemetry.registry
        for field, value in self.stats().items():
            registry.gauge(f"{prefix}.{field}").set(value)

    def lowering(self, templates: tuple[QuantumCircuit, ...]) -> tuple[GroupPlan, ...]:
        """The (memoized) lowering plan of a sweep's templates.

        Templates of one width, one measured register and one slot-gate
        table share a :class:`GroupPlan` over their merged program
        (:meth:`merged`); the groups come in first-appearance order.  The
        plan is keyed by the tuple's identities and validated against every
        template's current structure key (by identity: a mutation rebuilds
        the key), so a mutated template gets a fresh plan.  Templates are
        held weakly: a dead one drops its plans.  A served plan counts one
        hit per template, what :meth:`get_or_compile` would count.
        """
        key = tuple(map(id, templates))
        entry = self._lowerings.get(key)
        if entry is not None and all(
            ref() is template and structure is template.structure_key
            for ref, structure, template in zip(entry[0], entry[1], templates)
        ):
            self._hit(len(templates))
            return entry[2]
        programs = [self.get_or_compile(template) for template in templates]
        uniform: dict[tuple, list[int]] = {}
        for offset, (template, program) in enumerate(zip(templates, programs)):
            shape = (template.num_qubits, template.measured_qubits, program.slot_gates)
            uniform.setdefault(shape, []).append(offset)
        groups = tuple(
            group_plan(
                self.merged([programs[offset] for offset in offsets]),
                offsets,
                [parameter_plan(templates[offset], programs[offset]) for offset in offsets],
            )
            for offsets in uniform.values()
        )
        lowerings = self._lowerings

        def forget(ref: weakref.ref) -> None:
            stored = lowerings.get(key)
            if stored is not None and ref in stored[0]:
                del lowerings[key]

        refs = tuple(weakref.ref(template, forget) for template in templates)
        structures = tuple(template.structure_key for template in templates)
        self._lowerings[key] = (refs, structures, groups)
        return groups

    def clear(self) -> None:
        """Drop every entry (hit/miss counters are kept)."""
        self._entries.clear()
        self._merged.clear()
        self._lowerings.clear()


_SHARED = ProgramCache()


def shared_program_cache() -> ProgramCache:
    """The process-wide default program cache."""
    return _SHARED
