"""Compiled-vs-looped execution equivalence suite.

The ideal backend must agree with the looped reference simulator to better
than 1e-10 on probabilities for every circuit family the paper uses (GHZ,
QAOA, VQE hardware-efficient ansatz), and the noisy backend must be
bit-exact with the same circuits run as one-circuit device jobs back to back
for fixed seeds.
"""

import numpy as np
import pytest

from repro.backends import NoisyBackend, StatevectorBackend
from repro.circuit import ghz_state, hardware_efficient_ansatz, qaoa_maxcut_ansatz
from repro.devices import build_qpu
from repro.devices.qpu import CircuitFootprint, job_slot_circuit_seconds
from repro.engine import execute_program, lower_batch
from repro.simulator.statevector import simulate_statevector

TOLERANCE = 1e-10


def _random_bindings(template, batch, seed):
    rng = np.random.default_rng(seed)
    count = len(template.ordered_parameters())
    return [rng.uniform(-np.pi, np.pi, count) for _ in range(batch)]


@pytest.fixture(params=["ghz", "qaoa", "vqe"])
def circuit_family(request):
    if request.param == "ghz":
        return ghz_state(4)
    if request.param == "qaoa":
        return qaoa_maxcut_ansatz(4, [(0, 1), (1, 2), (2, 3), (0, 3)], num_layers=2)
    return hardware_efficient_ansatz(5)


class TestBatchedIdealEquivalence:
    def test_states_match_looped_simulator(self, circuit_family):
        bound = [
            circuit_family.assign_by_order(values)
            for values in _random_bindings(circuit_family, 12, seed=7)
        ]
        ((program, thetas, _, positions),) = lower_batch(bound)
        assert positions == list(range(len(bound)))
        for row, circuit in zip(execute_program(program, thetas), bound):
            reference = simulate_statevector(circuit).data
            assert np.max(np.abs(row - reference)) < TOLERANCE

    def test_probabilities_match_looped_simulator(self, circuit_family):
        bound = [
            circuit_family.assign_by_order(values)
            for values in _random_bindings(circuit_family, 16, seed=11)
        ]
        for probs, circuit in zip(StatevectorBackend().probabilities(bound), bound):
            reference = simulate_statevector(circuit).probabilities(
                list(circuit.measured_qubits or range(circuit.num_qubits))
            )
            assert np.max(np.abs(probs - reference)) < TOLERANCE

    def test_mixed_structure_batch_is_partitioned(self):
        ghz = ghz_state(4)
        vqe = hardware_efficient_ansatz(4).assign_by_order([0.3] * 16)
        results = StatevectorBackend().run([ghz, vqe, ghz], shots=256, seed=0)
        assert len(results) == 3
        assert results[0].metadata["structure_groups"] == 2
        # GHZ only ever measures all-zeros / all-ones ideally.
        assert set(results[0].counts) <= {"0000", "1111"}
        assert set(results[2].counts) <= {"0000", "1111"}

    def test_shared_and_divergent_angles_in_one_batch(self):
        """Exercises both the broadcast (equal-angle) and the stacked
        (per-element matrices) gate paths in one simulation."""
        template = qaoa_maxcut_ansatz(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        base = np.array([0.4, -0.9])
        bindings = [base, base, base + [0.0, 0.5], base + [-0.3, 0.0]]
        bound = [template.assign_by_order(v) for v in bindings]
        batched = StatevectorBackend().probabilities(bound)
        for probs, circuit in zip(batched, bound):
            reference = simulate_statevector(circuit).probabilities(
                list(circuit.measured_qubits)
            )
            assert np.max(np.abs(probs - reference)) < TOLERANCE


class TestNoisyEquivalence:
    @pytest.mark.parametrize("device_name", ["Belem", "Toronto"])
    def test_noisy_batch_matches_legacy_sequential_loop(self, device_name):
        """NoisyBackend.run == one-circuit jobs back to back, bit for bit."""
        template = hardware_efficient_ansatz(4)
        bound = [
            template.assign_by_order(values)
            for values in _random_bindings(template, 4, seed=13)
        ]
        footprint = CircuitFootprint.from_circuit(bound[0])
        now = 1800.0
        shots = 512

        legacy_qpu = build_qpu(device_name)
        legacy_rng = np.random.default_rng(99)
        legacy = []
        elapsed = 0.0
        for circuit in bound:
            (result,) = legacy_qpu.execute_batch(
                [circuit], footprint, shots, now=now + elapsed, rng=legacy_rng
            )
            legacy.append(result)
            elapsed += job_slot_circuit_seconds(result.duration_seconds)

        backend = NoisyBackend(build_qpu(device_name))
        batched_rng = np.random.default_rng(99)
        batched = backend.run(
            bound,
            shots=shots,
            footprint=footprint,
            now=now,
            rng=batched_rng,
        )

        assert len(batched) == len(legacy)
        for new, old in zip(batched, legacy):
            assert dict(new.counts) == dict(old.counts)
            assert new.duration_seconds == old.duration_seconds
            assert new.metadata == old.metadata
        assert batched_rng.bit_generator.state == legacy_rng.bit_generator.state

    def test_seeded_run_is_reproducible(self):
        backend = NoisyBackend(build_qpu("Belem"))
        circuit = ghz_state(4)
        a = backend.run([circuit], shots=256, seed=21, now=0.0)
        b = backend.run([circuit], shots=256, seed=21, now=0.0)
        assert dict(a[0].counts) == dict(b[0].counts)
