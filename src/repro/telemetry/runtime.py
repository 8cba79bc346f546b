"""The global telemetry switchboard and its no-op fast path.

Instrumentation sites throughout the stack import the module-level
:data:`TELEMETRY` singleton and guard every recording with a single
attribute check::

    from ..telemetry import TELEMETRY as _telemetry

    if _telemetry.enabled:
        _telemetry.registry.counter("engine.executions").inc()

Disabled (the default), the entire observability layer costs one branch per
instrumented call site on the *outermost* hot-path functions — never per
gate, per event, or per sweep point — which is what keeps the disabled-mode
overhead on the engine micro-benchmark under 2% (enforced by
``benchmarks/bench_telemetry.py``).  Telemetry consumes no RNG in either
mode, so seeded golden histories are bit-exact with telemetry on or off.

Set ``REPRO_TELEMETRY=1`` in the environment (or call
:func:`TELEMETRY.enable`) to collect; :func:`telemetry_session` scopes
collection to a block and restores the previous state on exit.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Mapping

from .registry import MetricsRegistry
from .trace import Tracer

__all__ = ["Telemetry", "TELEMETRY", "telemetry_session"]


class Telemetry:
    """One registry + one tracer behind an enabled flag."""

    __slots__ = ("enabled", "registry", "tracer")

    def __init__(self) -> None:
        self.enabled = False
        self.registry = MetricsRegistry()
        self.tracer = Tracer()

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop all collected metrics and spans (the flag is untouched)."""
        self.registry.reset()
        self.tracer.reset()

    def span(self, name: str, cat: str = "app", args: Mapping | None = None):
        """Shorthand for ``TELEMETRY.tracer.span`` (call only when enabled)."""
        return self.tracer.span(name, cat, args)


#: The process-wide telemetry instance every instrumentation site shares.
TELEMETRY = Telemetry()

if os.environ.get("REPRO_TELEMETRY", "0") not in ("", "0"):
    TELEMETRY.enable()


@contextmanager
def telemetry_session():
    """Enable collection for a block; restores the prior enabled state.

    The block starts from an empty registry and tracer, so the session
    captures exactly one run.
    """
    previous = TELEMETRY.enabled
    TELEMETRY.reset()
    TELEMETRY.enable()
    try:
        yield TELEMETRY
    finally:
        TELEMETRY.enabled = previous
