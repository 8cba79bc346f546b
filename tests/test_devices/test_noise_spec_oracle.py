"""Differential tests: a device job's noise against the per-circuit loop and
the per-job pass.

``_wave_noise`` builds one record for a whole wave of jobs in one array pass
at resolve time.  ``tests/_reference/noise.py`` holds what it replaced: the
loop over every qubit and coupling, one circuit at a time
(``reference.noise_spec``), and the per-job array pass with one record per
job (``reference._noise_record``).  Records, specs and result metadata must
be bit-equal: Toronto and Manhattan have rows long enough that a pairwise
sum would move the last bit (and so would builtin ``sum`` on Python >= 3.12,
which compensates), a QPU without couplings has an empty CX row, a job that
crosses a recalibration reads two tables, and a wave over several devices
pads narrower tables with zeros.
"""

import numpy as np
import pytest
from _reference import noise as reference
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import Parameter, ParameterSweep, QuantumCircuit
from repro.devices.catalog import available_devices, build_qpu
from repro.devices.qpu import (
    QPU,
    SECONDS_PER_HOUR,
    CircuitFootprint,
    ClockRows,
    QPUSpec,
    _wave_noise,
    job_slot_circuit_seconds,
    resolve_batches,
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
    """The job's specs equal the loop's at each circuit start."""
    width = max(1, footprint.num_measurements)  # the reference's readout width
    starts, _, _, drifts = qpu._walk_clock(num_circuits, now)
    specs = _wave_noise([ClockRows(qpu, footprint, drifts, width)]).specs()
    expected = [reference.noise_spec(qpu, footprint, cycle, factor) for _, cycle, factor in drifts]
    assert specs == expected
    return starts


def assert_bit_equal(record, expected):
    for column, want in zip(record._columns(), expected._columns()):
        assert column.shape == want.shape and column.dtype == want.dtype
        assert column.tobytes() == want.tobytes()


@st.composite
def footprints(draw, num_measurements):
    return CircuitFootprint(
        num_single_qubit_gates=draw(st.integers(min_value=0, max_value=200)),
        num_two_qubit_gates=draw(st.integers(min_value=0, max_value=100)),
        critical_depth=draw(st.integers(min_value=0, max_value=100)),
        num_measurements=num_measurements,
    )


@st.composite
def starts(draw, qpu, num_circuits):
    """Any time in three periods, or a start whose job crosses a recalibration."""
    if draw(st.booleans()):
        return draw(st.floats(min_value=0.0, max_value=3 * period_seconds(qpu)))
    span = num_circuits * job_slot_circuit_seconds(qpu.spec.base_job_seconds)
    boundary = draw(st.integers(min_value=1, max_value=3)) * period_seconds(qpu)
    return boundary - draw(st.floats(min_value=0.0, max_value=span))


@st.composite
def jobs(draw):
    """A QPU, a 1-24 circuit batch and a footprint measuring 0..n qubits."""
    qpu = draw(st.sampled_from(QPUS))
    num_circuits = draw(st.integers(min_value=1, max_value=24))
    footprint = draw(footprints(draw(st.integers(min_value=0, max_value=qpu.num_qubits))))
    return qpu, num_circuits, footprint, draw(starts(qpu, num_circuits))


@st.composite
def waves(draw, max_width=None):
    """1-10 jobs of 1-4 circuits over mixed devices (so mixed table widths),
    each its own footprint and start, and one readout width for the wave:
    ``(width, [(qpu, num_circuits, footprint, start), ...])``."""
    devices = draw(st.lists(st.sampled_from(QPUS), min_size=1, max_size=10))
    widest = min(qpu.num_qubits for qpu in devices)
    width = draw(st.integers(min_value=1, max_value=min(widest, max_width or widest)))
    wave = []
    for qpu in devices:
        num_circuits = draw(st.integers(min_value=1, max_value=4))
        footprint = draw(footprints(draw(st.sampled_from([0, width]))))
        wave.append((qpu, num_circuits, footprint, draw(starts(qpu, num_circuits))))
    return width, wave


def clock_rows(width, job):
    qpu, num_circuits, footprint, start = job
    return ClockRows(qpu, footprint, qpu._walk_clock(num_circuits, start)[3], width)


def per_job_records(clocks):
    """The wave as the per-job pass built it: one record per job, concatenated."""
    records = [reference._noise_record(*clock) for clock in clocks]
    columns = zip(*(record._columns() for record in records))
    return type(records[0])(*map(np.concatenate, columns))


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


@settings(max_examples=40, deadline=None)
@given(waves())
def test_drawn_waves_match_the_per_job_records(wave):
    width, jobs = wave
    clocks = [clock_rows(width, job) for job in jobs]
    assert_bit_equal(_wave_noise(clocks), per_job_records(clocks))


@settings(max_examples=40, deadline=None)
@given(jobs())
def test_execution_noise_is_the_per_job_row(job):
    qpu, _, footprint, now = job
    width = min(qpu.num_qubits, footprint.num_measurements or qpu.num_qubits)
    expected = reference._noise_record(qpu, footprint, [qpu._drift_at(now)], width)
    assert [qpu.execution_noise(footprint, now)] == expected.specs()


def expected_metadata(clock):
    success = reference._noise_record(*clock).success.tolist()
    return [
        {"success_probability": s, "calibration_age_hours": age, "drift_factor": factor}
        for s, (age, _, factor) in zip(success, clock.drifts)
    ]


@settings(max_examples=15, deadline=None)
@given(waves(max_width=3), st.integers(0, 2**32 - 1))
def test_a_resolved_wave_writes_each_rows_success(wave, seed):
    """Parked jobs sharing a template resolve as one wave; each result's
    metadata carries its row of the per-job record, as does the same job
    run alone (``park=None``), with the same counts."""
    width, jobs = wave
    template = QuantumCircuit(width)
    template.ry(Parameter("t"), 0)
    for qubit in range(width):
        template.measure(qubit)
    parked, runs = [], []
    for number, job in enumerate(jobs):
        qpu, num_circuits, footprint, start = job
        sweep = ParameterSweep([template], np.full((num_circuits, 1), 0.3 * number))
        parked_results = qpu.execute_batch(
            sweep, footprint, 8, start, np.random.default_rng(seed + number), park=parked
        )
        alone = qpu.execute_batch(sweep, footprint, 8, start, np.random.default_rng(seed + number))
        runs.append((parked_results, alone, clock_rows(width, job)))
    resolve_batches(parked)
    for parked_results, alone, clock in runs:
        expected = expected_metadata(clock)
        assert [result.metadata for result in parked_results] == expected
        assert [result.metadata for result in alone] == expected
        assert [dict(r.counts) for r in parked_results] == [dict(r.counts) for r in alone]
