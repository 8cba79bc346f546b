"""Differential tests: a device job's noise specs against the per-circuit loop.

``QPU._timeline_with_metadata`` scales one calibration table per cycle for a
whole job; ``tests/_reference/noise.py`` is the loop over every qubit and
coupling that it replaced, one circuit at a time.  Specs and metadata must be
``==``: Toronto and Manhattan have rows long enough that a pairwise sum would
move the last bit (and so would a plain left-to-right sum on Python >= 3.12,
whose builtin ``sum`` compensates), a QPU without couplings has an empty CX
row, and a batch that crosses a recalibration reads two tables.
"""

import pytest
from _reference import noise as reference
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.catalog import available_devices, build_qpu
from repro.devices.qpu import (
    QPU,
    SECONDS_PER_HOUR,
    CircuitFootprint,
    QPUSpec,
    job_slot_circuit_seconds,
)
from repro.devices.topology import Topology

ISOLATED = QPUSpec(
    name="isolated",
    num_qubits=3,
    processor="none",
    quantum_volume=1,
    topology=Topology("isolated", 3, ()),
    seed=7,
)
QPUS = [build_qpu(name) for name in available_devices()] + [QPU(ISOLATED)]


def period_seconds(qpu):
    return qpu.spec.calibration_period_hours * SECONDS_PER_HOUR


def assert_matches_loop(qpu, num_circuits, footprint, now):
    """The job's specs and metadata equal the loop's at each circuit start."""
    width = max(1, footprint.num_measurements)  # the reference's readout width
    starts, _, record, metadata = qpu._timeline_with_metadata(num_circuits, footprint, now, width)
    specs = record.specs()
    drifts = qpu._walk_clock(num_circuits, now)[3]
    expected = [reference.noise_spec(qpu, footprint, cycle, factor) for _, cycle, factor in drifts]
    assert specs == expected
    assert metadata == [
        {"success_probability": spec.success_probability, "calibration_age_hours": age, "drift_factor": factor}
        for spec, (age, _, factor) in zip(expected, drifts)
    ]
    return starts


@st.composite
def jobs(draw):
    """A QPU, a 1-24 circuit batch and a footprint measuring 0..n qubits;
    half the batches start just before a recalibration."""
    qpu = draw(st.sampled_from(QPUS))
    num_circuits = draw(st.integers(min_value=1, max_value=24))
    if draw(st.booleans()):
        now = draw(st.floats(min_value=0.0, max_value=3 * period_seconds(qpu)))
    else:
        span = num_circuits * job_slot_circuit_seconds(qpu.spec.base_job_seconds)
        boundary = draw(st.integers(min_value=1, max_value=3)) * period_seconds(qpu)
        now = boundary - draw(st.floats(min_value=0.0, max_value=span))
    footprint = CircuitFootprint(
        num_single_qubit_gates=draw(st.integers(min_value=0, max_value=200)),
        num_two_qubit_gates=draw(st.integers(min_value=0, max_value=100)),
        critical_depth=draw(st.integers(min_value=0, max_value=100)),
        num_measurements=draw(st.integers(min_value=0, max_value=qpu.num_qubits)),
    )
    return qpu, num_circuits, footprint, now


@settings(max_examples=300, deadline=None)
@given(jobs())
def test_drawn_jobs_match_the_per_circuit_loop(job):
    assert_matches_loop(*job)


@pytest.mark.parametrize("qpu", QPUS, ids=lambda qpu: qpu.name)
def test_a_job_across_a_recalibration_reads_both_tables(qpu):
    now = period_seconds(qpu) - 3 * job_slot_circuit_seconds(qpu.spec.base_job_seconds)
    footprint = CircuitFootprint(40, 12, 30, qpu.num_qubits)
    starts = assert_matches_loop(qpu, 24, footprint, now)
    assert qpu.calibration_cycle(starts[0]) < qpu.calibration_cycle(starts[-1])
