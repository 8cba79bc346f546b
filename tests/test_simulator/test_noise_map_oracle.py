"""Differential tests: the noise map training samples from, against an oracle.

``noisy_probabilities_batch`` lowers, fuses and runs circuits through the
compiled engine, scales rotation slots by the coherent bias, mixes the
marginal with the uniform distribution and contracts readout confusion bit by
bit.  ``tests/_reference/density_matrix.py`` states the same map with none of
that machinery: full gate unitaries on a dense density matrix, a global
depolarizing mix, a marginal and a Kronecker product of confusion matrices.
The two must agree to 1e-12 on drawn circuits of up to six qubits over every
unitary gate, with random measured registers, under noise specs of real
catalog devices (the wave pass ``_wave_noise``) and random ones with and
without readout error, in the three shapes the library calls: one job, a
stacked wave of jobs (``blocks=``, as ``resolve_batches`` passes it) and a
one-circuit job.  Parametrized cases pin, whatever hypothesis draws, each
unitary gate once and each catalog device once.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from _reference import density_matrix as reference
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import Parameter, ParameterSweep, QuantumCircuit
from repro.circuit.gates import GATE_SPECS
from repro.devices.catalog import available_devices, build_qpu
from repro.devices.qpu import SECONDS_PER_HOUR, CircuitFootprint, CloudJob, _wave_noise
from repro.simulator.mixing import MixingNoiseSpec, noisy_probabilities_batch

TOLERANCE = 1e-12
UNITARY_GATES = sorted(name for name, spec in GATE_SPECS.items() if not spec.is_directive)
DEVICES = [build_qpu(name) for name in available_devices()]

angles = st.floats(min_value=-2 * math.pi, max_value=2 * math.pi, allow_nan=False)
unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
biases = st.floats(min_value=-0.2, max_value=0.2, allow_nan=False)


def register_width(circuit):
    return len(circuit.measured_qubits) or circuit.num_qubits


def job_noise(qpu, count, footprint, now, width):
    """The noise record of a ``count``-circuit job starting at ``now``."""
    drifts = qpu._walk_clock(count, now)[1]
    job = CloudJob(-1, qpu.name, count, 1, now, qpu=qpu, footprint=footprint, drifts=drifts,
                   width=width)
    return _wave_noise([job])


def assert_matches_oracle(rows, circuits, specs):
    assert len(rows) == len(circuits) == len(specs)
    for row, circuit, spec in zip(rows, circuits, specs):
        expected = reference.noisy_probabilities(circuit, spec)
        assert np.max(np.abs(np.asarray(row) - expected)) <= TOLERANCE


def placements(num_qubits):
    """Every unitary gate on every ordered choice of its qubits."""
    return [
        (name, qubits)
        for name in UNITARY_GATES
        for qubits in itertools.permutations(range(num_qubits), GATE_SPECS[name].num_qubits)
    ]


PLACEMENTS = {num_qubits: st.sampled_from(placements(num_qubits)) for num_qubits in range(1, 7)}
GATE_COUNTS = st.integers(1, 12)


@st.composite
def gate_lists(draw, num_qubits, angle):
    """1-12 gates drawn from every unitary gate that fits, any qubit order."""
    moves = []
    for _ in range(draw(GATE_COUNTS)):
        name, qubits = draw(PLACEMENTS[num_qubits])
        moves.append((name, qubits, [angle() for _ in range(GATE_SPECS[name].num_params)]))
    return moves


def build(num_qubits, moves, measured):
    circuit = QuantumCircuit(num_qubits)
    for name, qubits, params in moves:
        circuit.add_gate(name, qubits, params)
    for qubit in measured:
        circuit.measure(qubit)
    return circuit


@st.composite
def measured_registers(draw, num_qubits):
    """Any subset of the qubits in any order; empty measures them all."""
    return draw(st.permutations(range(num_qubits)))[: draw(st.integers(0, num_qubits))]


@st.composite
def bound_circuits(draw):
    num_qubits = draw(st.integers(1, 6))
    moves = draw(gate_lists(num_qubits, lambda: draw(angles)))
    return build(num_qubits, moves, draw(measured_registers(num_qubits)))


@st.composite
def random_specs(draw, num_bits):
    """Per-qubit, scalar or exact readout; any success probability and bias."""
    success, bias = draw(unit), draw(biases)
    kind = draw(st.sampled_from(["per_qubit", "scalar", "exact"]))
    if kind == "per_qubit":
        pairs = tuple((draw(unit), draw(unit)) for _ in range(num_bits))
        return MixingNoiseSpec(success, coherent_bias=bias, per_qubit_readout=pairs)
    if kind == "scalar":
        return MixingNoiseSpec(success, draw(unit), draw(unit), coherent_bias=bias)
    return MixingNoiseSpec(success, coherent_bias=bias)


@st.composite
def job_specs(draw, circuit, count):
    """``count`` specs of one job: a catalog device's clock, or random rows."""
    width = max(register_width(circuit), 1)
    if draw(st.booleans()):
        qpu = draw(st.sampled_from([d for d in DEVICES if d.num_qubits >= width]))
        period = qpu.spec.calibration_period_hours * SECONDS_PER_HOUR
        now = draw(st.floats(min_value=0.0, max_value=3 * period))
        footprint = dataclasses.replace(
            CircuitFootprint.from_circuit(circuit), num_measurements=width
        )
        return job_noise(qpu, count, footprint, now, width).specs()
    return [draw(random_specs(width)) for _ in range(count)]


@st.composite
def jobs(draw):
    """1-3 bound circuits of any structures and widths, one spec each."""
    circuits = draw(st.lists(bound_circuits(), min_size=1, max_size=3))
    widest = max(circuits, key=register_width)
    return circuits, draw(job_specs(widest, len(circuits)))


@st.composite
def waves(draw):
    """Jobs over the same templates (a measured ansatz and a basis-rotated
    copy), each its own points and specs, stacked as resolve_batches stacks."""
    num_qubits = draw(st.integers(1, 6))
    symbols = iter(Parameter(f"t{index}") for index in range(64))
    moves = draw(gate_lists(num_qubits, lambda: next(symbols)))
    moves.append(("ry", (0,), [next(symbols)]))
    rotated = moves + [("h", (q,), []) for q in range(num_qubits)]
    templates = [build(num_qubits, moves, draw(measured_registers(num_qubits)))]
    if draw(st.booleans()):
        templates.append(build(num_qubits, rotated, draw(measured_registers(num_qubits))))
    widest = max(templates, key=register_width)
    num_parameters = len(templates[0].parameters)
    thetas, specs = [], []
    for _ in range(draw(st.integers(1, 3))):
        points = draw(st.integers(1, 2))
        thetas.append([[draw(angles) for _ in range(num_parameters)] for _ in range(points)])
        specs.append(draw(job_specs(widest, points * len(templates))))
    return templates, thetas, specs


@settings(max_examples=25, deadline=None)
@given(jobs())
def test_one_job_matches_the_density_matrix(job):
    circuits, specs = job
    assert_matches_oracle(noisy_probabilities_batch(circuits, specs), circuits, specs)


@settings(max_examples=20, deadline=None)
@given(waves())
def test_a_stacked_wave_matches_the_density_matrix(wave):
    templates, thetas, specs = wave
    sweep = ParameterSweep(templates, np.vstack(thetas))
    flat = [spec for job in specs for spec in job]
    rows = noisy_probabilities_batch(sweep, flat, blocks=[len(job) for job in specs])
    assert_matches_oracle(rows, sweep.bound_circuits(), flat)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_one_circuit_matches_the_density_matrix(data):
    circuit = data.draw(bound_circuits())
    (spec,) = data.draw(job_specs(circuit, 1))
    assert_matches_oracle(noisy_probabilities_batch([circuit], [spec]), [circuit], [spec])


@pytest.mark.parametrize("name", UNITARY_GATES)
def test_each_gate_matches_the_density_matrix(name):
    """Every unitary gate, on reversed qubits of a generic state."""
    gate = GATE_SPECS[name]
    circuit = QuantumCircuit(3)
    for qubit in range(3):
        circuit.h(qubit).ry(0.3 + 0.4 * qubit, qubit)
    circuit.add_gate(name, (2, 1, 0)[: gate.num_qubits], [0.7, 1.9, -0.4][: gate.num_params])
    circuit.measure(2).measure(0)
    readout = ((0.02, 0.05), (0.08, 0.01))
    spec = MixingNoiseSpec(0.85, coherent_bias=0.15, per_qubit_readout=readout)
    assert_matches_oracle(noisy_probabilities_batch([circuit], [spec]), [circuit], [spec])


@pytest.mark.parametrize("qpu", DEVICES, ids=available_devices())
def test_each_catalog_device_matches_the_density_matrix(qpu):
    """A job on every catalog device, starting a second before a recalibration."""
    width = min(qpu.num_qubits, 5)
    circuit = QuantumCircuit(width)
    for qubit in range(width):
        circuit.h(qubit).rz(0.2 + 0.3 * qubit, qubit)
    for qubit in range(width - 1):
        circuit.rzz(0.9, qubit, qubit + 1).cx(qubit + 1, qubit)
    for qubit in reversed(range(width)):
        circuit.ry(1.1, qubit).measure(qubit)
    period = qpu.spec.calibration_period_hours * SECONDS_PER_HOUR
    footprint = CircuitFootprint.from_circuit(circuit)
    specs = job_noise(qpu, 4, footprint, period - 1.0, width).specs()
    circuits = [circuit] * len(specs)
    assert_matches_oracle(noisy_probabilities_batch(circuits, specs), circuits, specs)


def biased(bias):
    return MixingNoiseSpec(1.0, coherent_bias=bias)


def test_zero_bias_leaves_the_circuit_ideal():
    circuit = QuantumCircuit(2).ry(0.5, 0).rzz(1.3, 0, 1).measure_all()
    (row,) = noisy_probabilities_batch([circuit], [biased(0.0)])
    state = reference.evolve(circuit)
    assert np.max(np.abs(row - np.real(np.diag(state)))) <= TOLERANCE
    assert_matches_oracle([row], [circuit], [biased(0.0)])


def test_bias_scales_rotation_angles_only():
    def circuit(scale):
        return (
            QuantumCircuit(2)
            .ry(1.0 * scale, 0)
            .rz(2.0 * scale, 0)
            .rx(0.7 * scale, 1)
            .rzz(0.4 * scale, 0, 1)
            .cp(0.9, 1, 0)
            .h(1)
            .measure_all()
        )

    (row,) = noisy_probabilities_batch([circuit(1.0)], [biased(0.1)])
    (explicit,) = noisy_probabilities_batch([circuit(1.1)], [biased(0.0)])
    assert np.max(np.abs(row - explicit)) <= TOLERANCE
    assert_matches_oracle([row], [circuit(1.0)], [biased(0.1)])


def test_discrete_gates_are_untouched_by_bias():
    circuit = QuantumCircuit(3).h(0).sx(1).cx(0, 2).t(2).swap(1, 2).s(0).measure_all()
    rows = noisy_probabilities_batch([circuit, circuit], [biased(0.0), biased(0.5)])
    assert np.array_equal(rows[0], rows[1])
    assert_matches_oracle(rows, [circuit, circuit], [biased(0.0), biased(0.5)])
