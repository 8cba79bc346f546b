"""Every written-out copy of the calibration-cycle arithmetic agrees with
:meth:`QPU.calibration_cycle` and :meth:`QPU.hours_since_calibration`.

To save calls on the job path, four ``QPU`` methods spell out ``now //
period`` and ``(now % period) / SECONDS_PER_HOUR`` themselves:
``_drift_at``, ``job_duration_seconds``, ``_walk_clock`` and
``estimated_calibration``.  This differential holds each copy to the two
named methods at random times, at exact calibration-cycle and
property-refresh boundaries (and one ulp either side of them) and at t = 0,
on periods that are and are not whole numbers of seconds in binary.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.catalog import TABLE_I
from repro.devices.qpu import QPU, SECONDS_PER_HOUR, job_slot_circuit_seconds

#: (template, calibration period in hours, property refresh in hours)
SPECS = {
    "Belem": ("Belem", None, None),
    "Toronto-1.7h": ("Toronto", 1.7, 0.3),
    "x2-0.1h": ("x2", 0.1, 0.03),
}
CYCLES = 4


def _qpu(key: str) -> QPU:
    template, period, refresh = SPECS[key]
    spec = TABLE_I[template]
    if period is not None:
        spec = dataclasses.replace(
            spec, calibration_period_hours=period, properties_refresh_hours=refresh
        )
    return QPU(spec)


def _period(qpu: QPU) -> float:
    return qpu.spec.calibration_period_hours * SECONDS_PER_HOUR


def _reference_drift(qpu: QPU, now: float) -> tuple[float, int, float]:
    age, cycle = qpu.hours_since_calibration(now), qpu.calibration_cycle(now)
    return age, cycle, qpu._drift.drift_factor(age, cycle)


def _reference_duration(qpu: QPU, now: float) -> float:
    factor = _reference_drift(qpu, now)[2]
    return qpu.spec.base_job_seconds / max(1.0 / factor, 1e-6)


def _check(qpu: QPU, now: float) -> None:
    drift = _reference_drift(qpu, now)
    assert qpu._drift_at(now) == drift
    assert qpu.drift_factor(now) == drift[2]
    assert qpu.job_duration_seconds(now) == _reference_duration(qpu, now)

    durations, drifts, held = qpu._walk_clock(5, now)
    elapsed = 0.0
    for duration, triple in zip(durations, drifts):
        start = float(now + elapsed)
        assert triple == _reference_drift(qpu, start)
        assert duration == _reference_duration(qpu, start) == qpu.job_duration_seconds(start)
        elapsed += job_slot_circuit_seconds(duration)
    assert held == elapsed

    refresh = qpu.spec.properties_refresh_hours
    cycle = qpu.calibration_cycle(now)
    step = math.floor(qpu.hours_since_calibration(now) / refresh)
    estimated = qpu.estimated_calibration(now)
    assert estimated is qpu._record.estimated[cycle, step]
    factor = qpu._drift.drift_factor(step * refresh, cycle)
    assert estimated == qpu.reported_calibration(now).scale_errors(factor)


def _boundaries(qpu: QPU) -> list[float]:
    period = _period(qpu)
    refresh = qpu.spec.properties_refresh_hours * SECONDS_PER_HOUR
    times = {0.0, math.nextafter(0.0, 1.0)}
    for cycle in range(CYCLES):
        for edge in (cycle * period, cycle * period + refresh, (cycle + 1) * period - refresh):
            times.update((edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)))
    return sorted(t for t in times if t >= 0.0)


@pytest.mark.parametrize("key", sorted(SPECS))
def test_the_copies_agree_at_zero_and_at_every_boundary(key):
    qpu = _qpu(key)
    for now in _boundaries(qpu):
        _check(qpu, now)


@pytest.mark.parametrize("key", sorted(SPECS))
@settings(max_examples=60, deadline=None)
@given(fraction=st.floats(0.0, 1.0, exclude_max=True))
def test_the_copies_agree_at_random_times(key, fraction):
    qpu = _qpu(key)
    _check(qpu, fraction * CYCLES * _period(qpu))
