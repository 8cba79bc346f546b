"""Host-speed reference for the timed metrics.

The benchmark runs in a shared sandbox whose speed drifts by tens of percent
over minutes (ten runs of one workload on ten seeds, one after the other,
gave raw ``segment p50`` spreads of 25-44 % on the box this was written on,
with whole 3-minute stretches 1.4-1.7x slow on every workload at once).  A
regression bound of 10 % cannot be read through that, however long one run
measures, because the drift is slower than a run.

So every timed operation is bracketed by this fixed kernel, which never calls
into ``repro``: a stretch of pure-Python dictionary/string work and a stretch
of small complex matrix products, the two kinds of work the program's
segments are made of.  A host that is 1.5x slow runs the kernel and the
segment 1.5x slow, and the quotient stays put.  Times are reported as

    reference time = measured time * REFERENCE_SECONDS / kernel time

that is, in seconds of a host on which the kernel takes ``REFERENCE_SECONDS``
(what it takes on the 2-core reference box when nothing else runs, so
reference times read like wall times there).  The raw wall times are printed
beside them and kept in the report; only the reference times are metrics.

The kernel depends on the interpreter and on numpy, not on the program under
test: a change to ``src/`` cannot move it, an interpreter or numpy upgrade
re-bases every metric and needs a fresh baseline.
"""

from __future__ import annotations

from time import process_time

import numpy as np

#: Seconds one :func:`kernel` call takes on the idle reference box.
REFERENCE_SECONDS = 0.030

_rng = np.random.default_rng(0)
_STATES = _rng.standard_normal((64, 16)) + 1j * _rng.standard_normal((64, 16))
_GATE = _rng.standard_normal((16, 16)) + 1j * _rng.standard_normal((16, 16))


def kernel() -> float:
    """Run the fixed work once; the CPU seconds it took."""
    start = process_time()
    table: dict[int, int] = {}
    total = 0
    for i in range(60_000):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        total += len(str(key))
    states = _STATES
    for _ in range(1500):
        states = states @ _GATE
        states = states / np.abs(states).max()
    return process_time() - start


def slowdown(*kernel_seconds: float) -> float:
    """How many times slower than the reference the host ran (mean of readings)."""
    return sum(kernel_seconds) / len(kernel_seconds) / REFERENCE_SECONDS
