"""The process-wide, structure-keyed caches owned by the backend layer.

Transpiling is deterministic, so one template is transpiled once per topology
per process.  :class:`TranspileCache` keys its entries by the template's
structure plus its parameter objects (see :func:`template_structure_key`) and
by the target topology; the process-wide instance behind
:func:`shared_transpile_cache` is the one every EQC client and ensemble reads.

The compiled execution engine follows the same pattern one layer down:
:class:`~repro.engine.cache.ProgramCache` (re-exported here, with the
process-wide instance behind :func:`shared_program_cache`) keys compiled
:class:`~repro.engine.program.GateProgram` objects by
``QuantumCircuit.structure_key``, so a parameter sweep compiles its ansatz
exactly once no matter which backend, estimator, or noisy device runs it.
"""

from __future__ import annotations

import time

from ..circuit.circuit import QuantumCircuit
from ..circuit.parameters import Parameter, ParameterExpression
from ..devices.topology import Topology
from ..engine.cache import ProgramCache, shared_program_cache
from ..telemetry import TELEMETRY as _telemetry
from ..transpiler.transpile import TranspileResult, transpile

__all__ = [
    "template_structure_key",
    "TranspileCache",
    "shared_transpile_cache",
    "ProgramCache",
    "shared_program_cache",
]


def template_structure_key(circuit: QuantumCircuit):
    """A hashable key capturing a template's full gate content.

    The circuit's cached ``structure_key`` plus every gate angle as its
    parameter object: a :class:`Parameter` (equal by identity, not by display
    name), a :class:`ParameterExpression` (equal by parameter, coefficient and
    offset), or ``float(value)`` for a bound angle.  Two templates share a key
    only when they apply the same gates at equal angles, so a hit always
    returns the transpilation of an equal template.
    """
    return (
        circuit.structure_key,
        tuple(
            p if isinstance(p, (Parameter, ParameterExpression)) else float(p)
            for inst in circuit.instructions
            for p in inst.params
        ),
    )


class TranspileCache:
    """Structure-keyed cache of :class:`TranspileResult` objects.

    The key includes the topology, so one instance serves every device; the
    process-wide one is :func:`shared_transpile_cache`.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple, TranspileResult] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def get_or_transpile(
        self, template: QuantumCircuit, topology: Topology
    ) -> TranspileResult:
        """Return the cached transpilation of ``template`` for ``topology``.

        On a miss the template is transpiled and the result stored; the
        deterministic pipeline means all callers observe identical results.
        """
        key = (
            template_structure_key(template),
            topology.name,
            topology.num_qubits,
            topology.edges,
        )
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            if _telemetry.enabled:
                _telemetry.registry.counter("backends.transpile_cache.hits").inc()
            return entry
        self.misses += 1
        start = time.perf_counter() if _telemetry.enabled else 0.0
        entry = transpile(template, topology)
        self._entries[key] = entry
        if _telemetry.enabled:
            registry = _telemetry.registry
            registry.counter("backends.transpile_cache.misses").inc()
            registry.histogram("backends.transpile_seconds").observe(
                time.perf_counter() - start
            )
            registry.gauge("backends.transpile_cache.size").set(len(self._entries))
        return entry

    def stats(self) -> dict[str, float]:
        """Hit/miss/size counters (cache effectiveness at a glance)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": len(self._entries),
            "hit_rate": self.hit_rate,
        }

    def publish(self, registry=None, prefix: str = "backends.transpile_cache") -> None:
        """Write the current :meth:`stats` into a metrics registry as gauges."""
        if registry is None:
            registry = _telemetry.registry
        for field, value in self.stats().items():
            registry.gauge(f"{prefix}.{field}").set(value)

    def clear(self) -> None:
        """Drop every entry (hit/miss counters are kept)."""
        self._entries.clear()


_SHARED = TranspileCache()


def shared_transpile_cache() -> TranspileCache:
    """The process-wide transpile cache."""
    return _SHARED
