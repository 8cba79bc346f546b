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
from .program import GateProgram, ParameterPlan, merge_programs, parameter_plan

__all__ = ["ProgramCache", "shared_program_cache"]


class ProgramCache:
    """A structure-keyed cache of :class:`GateProgram` objects."""

    def __init__(self) -> None:
        self._entries: dict[tuple, GateProgram] = {}
        #: Merged programs, keyed by the identities of the cached programs
        #: they fold (stable for as long as ``_entries`` holds those).
        self._merged: dict[tuple[int, ...], GateProgram] = {}
        #: Per-template parameter plans, keyed by template identity (plans
        #: depend on the template's Parameter objects, not just structure).
        self._plans: weakref.WeakKeyDictionary[QuantumCircuit, tuple] = (
            weakref.WeakKeyDictionary()
        )
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
            self.hits += 1
            if _telemetry.enabled:
                _telemetry.registry.counter("engine.program_cache.hits").inc()
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

    def plan_for(
        self, circuit: QuantumCircuit, program: GateProgram | None = None
    ) -> ParameterPlan:
        """The (memoized) slot-angle plan of a template circuit.

        Plans are keyed by template object identity and validated against the
        current structure key, so hot sweep paths skip the per-slot Python
        walk of :func:`parameter_plan` after the first call while a mutated
        template still gets a fresh plan.
        """
        key = circuit.structure_key
        entry = self._plans.get(circuit)
        if entry is not None and entry[0] is key:
            return entry[1]
        if program is None:
            program = self.get_or_compile(circuit)
        plan = parameter_plan(circuit, program)
        self._plans[circuit] = (key, plan)
        return plan

    def clear(self) -> None:
        """Drop every entry (hit/miss counters are kept)."""
        self._entries.clear()
        self._merged.clear()
        self._plans.clear()


_SHARED = ProgramCache()


def shared_program_cache() -> ProgramCache:
    """The process-wide default program cache."""
    return _SHARED
