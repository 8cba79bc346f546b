"""Pluggable execution backends for the submit→simulate→sample path.

This package defines the :class:`ExecutionBackend` protocol — one method,
``run(batch, shots, seed, **context)``, over bound circuits or an unbound
:class:`~repro.circuit.sweep.ParameterSweep` — and its two engines:

* :class:`StatevectorBackend` — ideal: a whole batch runs as one
  compiled-program pass per lowered group over a ``(rows, 2**n)`` state
  stack; a sweep never binds a circuit at all.  It serves the sampled ideal
  baseline (:class:`~repro.baselines.ideal.IdealTrainer`) and no device.
* :class:`NoisyBackend` — the analytic channel/mixing device path, adapted
  to the protocol; every cloud device endpoint runs one.

Both execute from the same lowering (:func:`repro.engine.lower_batch`).  The
package also owns the shared structure-keyed caches: :class:`TranspileCache`
(templates → routed circuits) and the re-exported
:class:`~repro.engine.cache.ProgramCache` (structures → compiled gate
programs).
"""

from .base import ExecutionBackend, measured_register, normalize_batch
from .cache import (
    ProgramCache,
    TranspileCache,
    shared_program_cache,
    template_structure_key,
)
from .noisy import NoisyBackend
from .statevector import StatevectorBackend

__all__ = [
    "ExecutionBackend",
    "StatevectorBackend",
    "NoisyBackend",
    "TranspileCache",
    "ProgramCache",
    "shared_program_cache",
    "normalize_batch",
    "measured_register",
    "template_structure_key",
]
