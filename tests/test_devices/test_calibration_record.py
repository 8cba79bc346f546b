"""The process-wide calibration record of a device spec.

Every ``QPU`` of an equal ``QPUSpec`` reads one record: the generator, the
drift model with its per-cycle parameters, each cycle's reported snapshot and
calibration table, and each ``(cycle, refresh step)``'s estimated snapshot.
The record must equal an independent computation, must differ per spec field,
and must hold no RNG state: a device's shot stream stays its own.
"""

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest

from repro.cloud.provider import CloudProvider
from repro.devices.catalog import available_devices, build_qpu, device_spec
from repro.devices.qpu import QPU, SECONDS_PER_HOUR, _calibration_record
from repro.devices.topology import line_topology
from repro.noise.calibration import GateCalibration
from repro.noise.drift import DriftModel
from repro.noise.generator import CalibrationGenerator
from repro.persist.format import read_checkpoint_file, write_checkpoint_file
from repro.sched.tournament import clone_fleet

BOGOTA = device_spec("Bogota")


def fresh_snapshot(spec, cycle):
    period = spec.calibration_period_hours * SECONDS_PER_HOUR
    return CalibrationGenerator(spec.noise_profile, spec.seed).generate(
        device_name=spec.name,
        num_qubits=spec.num_qubits,
        couplings=spec.topology.directed_couplings,
        timestamp=cycle * period,
        cycle=cycle,
    )


def fresh_table(snapshot):
    """The zero-padded ``(7, 1, width)`` rows t1, t2, 2*t1, p01, p10, 1q and
    CX errors, built one value at a time."""
    rows = [
        [q.t1 for q in snapshot.qubits],
        [q.t2 for q in snapshot.qubits],
        [2 * q.t1 for q in snapshot.qubits],
        [q.readout_p01 for q in snapshot.qubits],
        [q.readout_p10 for q in snapshot.qubits],
        [g.error for g in snapshot.single_qubit_gates],
        [g.error for g in snapshot.two_qubit_gates.values()],
    ]
    width = max(map(len, rows))
    return np.array([row + [0.0] * (width - len(row)) for row in rows])[:, None, :]


def test_devices_of_one_spec_share_one_record():
    first, second = QPU(BOGOTA), QPU(dataclasses.replace(BOGOTA))
    assert second.spec is not first.spec
    assert second._record is first._record is _calibration_record(BOGOTA)
    assert second.reported_calibration(0.0) is first.reported_calibration(0.0)
    assert second.estimated_calibration(9000.0) is first.estimated_calibration(9000.0)
    assert second._cycle_table(0) is first._cycle_table(0)
    assert second._drift is first._drift


@pytest.mark.parametrize(
    "changes",
    [
        {"name": "Bogota-2"},
        {"seed": BOGOTA.seed + 1},
        {"topology": line_topology(5)},
        {"noise_profile": dataclasses.replace(BOGOTA.noise_profile, t1=1e-4)},
        {"drift_profile": dataclasses.replace(BOGOTA.drift_profile, drift_rate=0.5)},
        {"calibration_period_hours": 12.0},
        {"properties_refresh_hours": 1.0},
    ],
    ids=lambda changes: next(iter(changes)),
)
def test_a_spec_differing_in_one_field_gets_its_own_record(changes):
    other = dataclasses.replace(BOGOTA, **changes)
    assert other != BOGOTA
    assert QPU(other)._record is not QPU(BOGOTA)._record


@pytest.mark.parametrize("cycle", [0, 1])
@pytest.mark.parametrize("name", available_devices())
def test_record_equals_an_independent_computation(name, cycle):
    spec = device_spec(name)
    qpu = QPU(spec)
    record = qpu._record
    period = spec.calibration_period_hours * SECONDS_PER_HOUR
    refresh = spec.properties_refresh_hours
    reported = fresh_snapshot(spec, cycle)
    drift = DriftModel(spec.drift_profile, spec.seed)

    assert qpu.reported_calibration(cycle * period + 1.0) is record.reported[cycle]
    assert record.reported[cycle] == reported
    last_step = math.ceil(spec.calibration_period_hours / refresh) - 1
    for step in (0, last_step):
        now = cycle * period + (step + 0.5) * refresh * SECONDS_PER_HOUR
        estimated = qpu.estimated_calibration(now)
        assert estimated is record.estimated[cycle, step]
        assert estimated == reported.scale_errors(drift.drift_factor(step * refresh, cycle))
    assert record.drift._cycle_params[cycle] == drift._params_for(cycle)

    table, n, n_cx, mu_g1, mu_g2 = qpu._cycle_table(cycle)
    assert record.tables[cycle][0] is table
    assert not table.flags.writeable
    assert table.tobytes() == fresh_table(reported).tobytes()
    assert (n, n_cx) == (len(reported.qubits), len(reported.two_qubit_gates))
    assert mu_g1 == reported.average_single_qubit_gate_time
    assert mu_g2 == (reported.average_cx_gate_time or mu_g1)


def test_a_device_shot_stream_is_its_own_and_built_on_first_read():
    first, second = QPU(BOGOTA), QPU(BOGOTA)
    assert "_rng" not in vars(first)
    untouched = second._rng.bit_generator.state
    first._rng.random(5)
    assert second._rng.bit_generator.state == untouched
    assert first._rng.bit_generator.state != untouched
    assert vars(QPU(BOGOTA)).keys().isdisjoint({"_rng", "_reported_cache", "_cycle_tables"})


def test_provider_checkpoint_round_trips_a_device_stream(tmp_path):
    provider = CloudProvider([build_qpu("Belem")], seed=3)
    provider.qpu("Belem")._rng.random(3)
    write_checkpoint_file(tmp_path / "c.eqc", {"provider": provider.snapshot_rows()})
    captured = read_checkpoint_file(tmp_path / "c.eqc")["provider"]
    expected = provider.qpu("Belem")._rng.random(4)

    fresh = CloudProvider([build_qpu("Belem")], seed=3)
    fresh.qpu("Belem")._rng.random(7)
    fresh.restore_rows(captured)
    assert fresh.qpu("Belem")._rng.random(4).tobytes() == expected.tobytes()


def test_a_second_fleet_of_the_same_clones_adds_no_records():
    clone_fleet(100)
    records = _calibration_record.cache_info().currsize
    fleet = clone_fleet(100)
    assert _calibration_record.cache_info().currsize == records
    assert len({id(qpu._record) for qpu, _ in fleet}) == 100


def _refuses_every_change(table):
    pair = next(iter(table))
    for change in (
        lambda: table.__setitem__(pair, GateCalibration(error=0.5, duration=1e-7)),
        lambda: table.__delitem__(pair),
        lambda: table.update({pair: table[pair]}),
        lambda: table.setdefault((9, 9), None),
        lambda: table.pop(pair),
        lambda: table.popitem(),
        lambda: table.clear(),
        lambda: table.__ior__({}),
    ):
        with pytest.raises(TypeError, match="read-only"):
            change()


def test_no_device_can_change_a_shared_cx_table():
    """Before: replacing one entry on one Belem moved every other Belem's
    ``average_cx_error`` (0.01405 -> 0.12484) behind its cycle table."""
    first, second = build_qpu("Belem"), build_qpu("Belem")
    now = 5 * SECONDS_PER_HOUR
    for snapshot in (
        first.reported_calibration(now),
        first.estimated_calibration(now),
        first.effective_calibration(now),
    ):
        _refuses_every_change(snapshot.two_qubit_gates)
    expected = fresh_snapshot(device_spec("Belem"), 0)
    assert second.reported_calibration(now) == expected
    assert second.reported_calibration(now).average_cx_error == expected.average_cx_error


def test_a_read_only_snapshot_copies_and_pickles():
    snapshot = build_qpu("Belem").reported_calibration(0.0)
    for clone in (
        copy.copy(snapshot),
        copy.deepcopy(snapshot),
        pickle.loads(pickle.dumps(snapshot)),
        dataclasses.replace(snapshot, timestamp=1.0),
    ):
        assert clone.two_qubit_gates == snapshot.two_qubit_gates
        _refuses_every_change(clone.two_qubit_gates)
    assert copy.deepcopy(snapshot) == snapshot


def test_a_snapshot_keeps_a_copy_of_the_table_it_is_given():
    snapshot = fresh_snapshot(device_spec("Belem"), 0)
    table = dict(snapshot.two_qubit_gates)
    built = dataclasses.replace(snapshot, two_qubit_gates=table)
    table.clear()
    assert built == snapshot and len(built.two_qubit_gates) == len(snapshot.two_qubit_gates)
