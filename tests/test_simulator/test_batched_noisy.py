"""Tests for the vectorized noisy execution pipeline (PR 4).

Two contracts are pinned here:

1. **A row is its circuit alone** — every row of ``noisy_probabilities_batch``
   agrees to <= 1e-10 with that circuit passed alone as a one-row batch,
   across randomized circuits, noise specs, and mixed-structure batches.  The
   map itself is pinned to an independent density-matrix statement in
   ``test_noise_map_oracle.py``.
2. **Seeded sampling order** — a ``k``-circuit device job consumes a shared
   RNG stream exactly like ``k`` one-circuit jobs back to back: identical
   counts, identical final generator state, golden-pinned draws.
"""

import numpy as np
import pytest
from _reference import readout as readout_reference

from repro.circuit import (
    Parameter,
    ParameterSweep,
    QuantumCircuit,
    ghz_state,
    hardware_efficient_ansatz,
)
from repro.devices.catalog import build_qpu
from repro.devices.qpu import CircuitFootprint, job_slot_circuit_seconds
from repro.simulator import mixing
from repro.simulator.mixing import MixingNoiseSpec, noisy_probabilities_batch
from repro.simulator.sampler import (
    apply_readout_error_batch,
    sample_distribution,
    sample_distribution_batch,
)
from repro.vqa.gradient import shifted_parameter_vectors

TOLERANCE = 1e-10


def _random_spec(rng: np.random.Generator, num_bits: int) -> MixingNoiseSpec:
    per_qubit = tuple(
        (float(rng.uniform(0.0, 0.08)), float(rng.uniform(0.0, 0.08)))
        for _ in range(num_bits)
    )
    return MixingNoiseSpec(
        success_probability=float(rng.uniform(0.4, 1.0)),
        per_qubit_readout=per_qubit,
        coherent_bias=float(rng.uniform(-0.05, 0.05)),
    )


def alone(circuit: QuantumCircuit, spec: MixingNoiseSpec) -> np.ndarray:
    """``circuit``'s noisy distribution as a one-row batch of its own."""
    (row,) = noisy_probabilities_batch([circuit], [spec])
    return row


def _shift_batch(num_qubits: int, num_params: int, seed: int) -> list[QuantumCircuit]:
    template = hardware_efficient_ansatz(num_qubits).measure_all()
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-np.pi, np.pi, len(template.ordered_parameters()))
    circuits = []
    for index in range(num_params):
        pair = shifted_parameter_vectors(theta, index)
        circuits.append(template.assign_by_order(pair.forward))
        circuits.append(template.assign_by_order(pair.backward))
    return circuits


class TestNoisyProbabilitiesBatch:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_sequential_on_random_batches(self, seed):
        rng = np.random.default_rng(seed)
        circuits = _shift_batch(4, 4, seed)
        specs = [_random_spec(rng, 4) for _ in circuits]
        batched = noisy_probabilities_batch(circuits, specs)
        for circuit, spec, probs in zip(circuits, specs, batched):
            reference = alone(circuit, spec)
            assert np.max(np.abs(probs - reference)) <= TOLERANCE

    def test_mixed_structure_batch_preserves_input_order(self):
        rng = np.random.default_rng(7)
        a = ghz_state(3)
        b = hardware_efficient_ansatz(3).measure_all()
        b = b.assign_by_order(
            list(rng.uniform(-1, 1, len(b.ordered_parameters())))
        )
        batch = [a, b, a, b]
        specs = [_random_spec(rng, 3) for _ in batch]
        batched = noisy_probabilities_batch(batch, specs)
        for circuit, spec, probs in zip(batch, specs, batched):
            reference = alone(circuit, spec)
            assert np.max(np.abs(probs - reference)) <= TOLERANCE

    def test_coherent_bias_rows_are_scaled_independently(self):
        rng = np.random.default_rng(11)
        circuits = _shift_batch(3, 2, 11)
        specs = [
            MixingNoiseSpec(success_probability=1.0, coherent_bias=bias)
            for bias in rng.uniform(-0.1, 0.1, len(circuits))
        ]
        batched = noisy_probabilities_batch(circuits, specs)
        for circuit, spec, probs in zip(circuits, specs, batched):
            reference = alone(circuit, spec)
            assert np.max(np.abs(probs - reference)) <= TOLERANCE

    def test_mixed_readout_presence_falls_back_row_wise(self):
        rng = np.random.default_rng(13)
        circuits = _shift_batch(3, 2, 13)
        specs = []
        for index in range(len(circuits)):
            if index % 2 == 0:
                specs.append(MixingNoiseSpec(success_probability=0.9))
            else:
                specs.append(_random_spec(rng, 3))
        batched = noisy_probabilities_batch(circuits, specs)
        for circuit, spec, probs in zip(circuits, specs, batched):
            reference = alone(circuit, spec)
            assert np.max(np.abs(probs - reference)) <= TOLERANCE

    def test_rejects_misaligned_specs(self):
        circuits = _shift_batch(3, 1, 0)
        with pytest.raises(ValueError):
            noisy_probabilities_batch(circuits, [MixingNoiseSpec(1.0)])

    def test_rejects_unbound_circuits(self):
        qc = QuantumCircuit(2).ry(Parameter("a"), 0).measure_all()
        with pytest.raises(ValueError):
            noisy_probabilities_batch([qc], [MixingNoiseSpec(1.0)])


def _measurement_family(measure_subset: bool = False) -> list[QuantumCircuit]:
    """One ansatz under three measurement bases (a gradient job's templates)."""
    templates = []
    for basis in ("z", "x", "y"):
        circuit = hardware_efficient_ansatz(3, measure=False)
        for qubit in range(3):
            if basis == "y":
                circuit.sdg(qubit)
            if basis != "z":
                circuit.h(qubit)
        if measure_subset and basis == "x":
            circuit.measure(2).measure(0)
        else:
            circuit.measure_all()
        templates.append(circuit)
    return templates


class TestJobWideTail:
    """A multi-template sweep is one group: one engine pass, one noise tail."""

    def _sweep(self, seed=0, points=2, **kwargs):
        templates = _measurement_family(**kwargs)
        rng = np.random.default_rng(seed)
        theta = rng.uniform(-np.pi, np.pi, (points, len(templates[0].parameters)))
        return ParameterSweep(templates, theta), rng

    def test_uniform_job_is_one_execution_and_one_matrix(self, monkeypatch):
        sweep, rng = self._sweep()
        specs = [_random_spec(rng, 3) for _ in range(len(sweep))]
        calls = []
        original = mixing.execute_program

        def counting(program, thetas):
            calls.append(thetas.shape)
            return original(program, thetas)

        monkeypatch.setattr(mixing, "execute_program", counting)
        batched = noisy_probabilities_batch(sweep, specs)
        assert calls == [(6, 12)]  # all rows x the ansatz's 12 slots
        assert isinstance(batched, np.ndarray) and batched.shape == (6, 8)
        for circuit, spec, row in zip(sweep.bound_circuits(), specs, batched):
            assert np.max(np.abs(row - alone(circuit, spec))) <= TOLERANCE

    def test_templates_measuring_different_registers_split_into_uniform_jobs(self):
        sweep, rng = self._sweep(seed=4, measure_subset=True)
        specs = [_random_spec(rng, 3) for _ in range(len(sweep))]
        batched = noisy_probabilities_batch(sweep, specs)
        assert [row.size for row in batched] == [8, 4, 8, 8, 4, 8]
        for circuit, spec, row in zip(sweep.bound_circuits(), specs, batched):
            assert np.max(np.abs(row - alone(circuit, spec))) <= TOLERANCE

    def test_mixed_readout_presence_falls_back_row_wise(self):
        sweep, rng = self._sweep(seed=6)
        specs = [
            MixingNoiseSpec(success_probability=0.9) if index % 2 else _random_spec(rng, 3)
            for index in range(len(sweep))
        ]
        batched = noisy_probabilities_batch(sweep, specs)
        for circuit, spec, row in zip(sweep.bound_circuits(), specs, batched):
            assert np.max(np.abs(row - alone(circuit, spec))) <= TOLERANCE

    def test_scalar_readout_matches_sequential(self):
        sweep, _ = self._sweep(seed=8)
        specs = [
            MixingNoiseSpec(0.8, readout_p01=0.01 * (i + 1), readout_p10=0.02)
            for i in range(len(sweep))
        ]
        batched = noisy_probabilities_batch(sweep, specs)
        for circuit, spec, row in zip(sweep.bound_circuits(), specs, batched):
            assert np.max(np.abs(row - alone(circuit, spec))) <= TOLERANCE

    def test_rejects_misaligned_spec_count(self):
        sweep, _ = self._sweep()
        with pytest.raises(ValueError, match="do not align"):
            noisy_probabilities_batch(sweep, [MixingNoiseSpec(1.0)] * 5)

    def test_rejects_readout_shorter_than_the_measured_register(self):
        sweep, rng = self._sweep()
        specs = [_random_spec(rng, 3) for _ in range(len(sweep))]
        specs[4] = _random_spec(rng, 2)
        with pytest.raises(ValueError, match="shorter than the measured register"):
            noisy_probabilities_batch(sweep, specs)

    def test_rejects_readout_probability_outside_unit_interval(self):
        sweep, rng = self._sweep()
        for bad in (1.5, -0.1, float("nan")):
            specs = [_random_spec(rng, 3) for _ in range(len(sweep))]
            # The spec validates at construction; a value corrupted afterwards
            # must still be stopped before it reaches the sampler.
            object.__setattr__(
                specs[3], "per_qubit_readout", ((0.01, 0.02), (bad, 0.0), (0.0, 0.0))
            )
            with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
                noisy_probabilities_batch(sweep, specs)

    def test_device_samples_the_job_matrix_like_a_list_of_rows(self):
        sweep, _ = self._sweep(seed=10)
        footprint = CircuitFootprint.from_circuit(sweep.templates[0])
        swept = build_qpu("Belem").execute_batch(
            sweep, footprint, 128, now=900.0, rng=np.random.default_rng(3)
        )
        bound = build_qpu("Belem").execute_batch(
            sweep.bound_circuits(), footprint, 128, now=900.0, rng=np.random.default_rng(3)
        )
        for left, right in zip(swept, bound):
            assert dict(left.counts) == dict(right.counts)
            assert left.metadata == right.metadata


class TestBatchedReadoutError:
    @pytest.mark.parametrize("num_bits", [1, 2, 4])
    def test_rows_match_sequential_application(self, num_bits):
        rng = np.random.default_rng(num_bits)
        batch = 6
        probs = rng.dirichlet(np.ones(1 << num_bits), size=batch)
        confusions = [
            [
                np.array(
                    [[1 - p01, p10], [p01, 1 - p10]]
                )
                for (p01, p10) in rng.uniform(0, 0.1, (num_bits, 2))
            ]
            for _ in range(batch)
        ]
        stacks = [
            np.stack([confusions[row][bit] for row in range(batch)])
            for bit in range(num_bits)
        ]
        batched = apply_readout_error_batch(probs, stacks)
        for row in range(batch):
            expected = readout_reference.apply_readout_error(probs[row], confusions[row])
            assert np.array_equal(batched[row], expected)


class TestSeededSamplingOrder:
    """The batched device paths must consume RNG streams bit-exactly."""

    def test_batched_multinomial_matches_sequential_draws(self):
        probs = np.random.default_rng(0).dirichlet(np.ones(16), size=8)
        seq_rng = np.random.default_rng(42)
        bat_rng = np.random.default_rng(42)
        sequential = [
            sample_distribution(row, 257, seq_rng, num_bits=4) for row in probs
        ]
        batched = sample_distribution_batch(probs, 257, bat_rng, num_bits=4)
        assert [dict(c) for c in sequential] == [dict(c) for c in batched]
        assert seq_rng.bit_generator.state == bat_rng.bit_generator.state

    def test_execute_batch_is_bit_exact_with_sequential_execution(self):
        circuits = _shift_batch(4, 4, 21)
        footprint = CircuitFootprint.from_circuit(circuits[0])
        batch_qpu = build_qpu("Belem")
        seq_qpu = build_qpu("Belem")

        batch_rng = np.random.default_rng(9)
        batched = batch_qpu.execute_batch(
            circuits, footprint, 256, now=5000.0, rng=batch_rng
        )

        seq_rng = np.random.default_rng(9)
        elapsed = 0.0
        sequential = []
        for circuit in circuits:
            (result,) = seq_qpu.execute_batch(
                [circuit], footprint, 256, now=5000.0 + elapsed, rng=seq_rng
            )
            sequential.append(result)
            elapsed += job_slot_circuit_seconds(result.duration_seconds)

        for left, right in zip(batched, sequential):
            assert dict(left.counts) == dict(right.counts)
            assert left.duration_seconds == right.duration_seconds
            assert left.metadata == right.metadata
        assert batch_rng.bit_generator.state == seq_rng.bit_generator.state

    def test_golden_rng_consumption_pin(self):
        """Golden draws for the seeded batched path (captured at PR 4)."""
        circuits = _shift_batch(3, 2, 1)
        footprint = CircuitFootprint.from_circuit(circuits[0])
        qpu = build_qpu("x2")
        results = qpu.execute_batch(
            circuits, footprint, 64, now=0.0, rng=np.random.default_rng(1234)
        )
        golden_first = {"000": 11, "001": 10, "010": 12, "011": 4, "100": 6, "101": 4, "110": 13, "111": 4}
        assert dict(results[0].counts) == golden_first
        total_shots = sum(sum(r.counts.values()) for r in results)
        assert total_shots == 64 * len(circuits)


class TestFastNoiseSpecPath:
    """execution_noise's average-based fast path must equal the snapshot math."""

    @pytest.mark.parametrize("device", ["Belem", "Bogota", "Toronto"])
    @pytest.mark.parametrize("now", [0.0, 3600.0, 43_200.0, 100_000.0])
    def test_success_probability_matches_snapshot_route(self, device, now):
        qpu = build_qpu(device)
        circuits = _shift_batch(4, 1, 5)
        footprint = CircuitFootprint.from_circuit(circuits[0])
        spec = qpu.execution_noise(footprint, now)
        assert spec.success_probability == qpu.true_success_probability(footprint, now)

    def test_per_qubit_readout_matches_scaled_snapshot(self):
        qpu = build_qpu("Belem")
        circuits = _shift_batch(4, 1, 5)
        footprint = CircuitFootprint.from_circuit(circuits[0])
        now = 7200.0
        spec = qpu.execution_noise(footprint, now)
        calibration = qpu.effective_calibration(now)
        expected = tuple(
            (q.readout_p01, q.readout_p10)
            for q in calibration.qubits[: max(1, footprint.num_measurements)]
        )
        assert spec.per_qubit_readout == expected

