"""Protocol-level tests for the execution-backend layer."""

import dataclasses

import numpy as np
import pytest
from _reference import density_matrix as reference

from repro.backends import (
    ExecutionBackend,
    NoisyBackend,
    StatevectorBackend,
    TranspileCache,
    normalize_batch,
)
from repro.backends.cache import shared_transpile_cache
from repro.baselines.ideal import IdealTrainer
from repro.circuit import (
    Parameter,
    ParameterSweep,
    QuantumCircuit,
    ghz_state,
    hardware_efficient_ansatz,
)
from repro.devices import build_qpu
from repro.devices.qpu import CircuitFootprint, _wave_noise, resolve_batches
from repro.simulator.mixing import noisy_probabilities_batch
from repro.vqa import heisenberg_vqe_problem, sampled_parameter_shift_gradient
from repro.vqa.gradient import exact_full_gradient, parameter_shift_batch


BOTH_BACKENDS = pytest.mark.parametrize(
    "backend",
    [StatevectorBackend(), NoisyBackend(build_qpu("Belem"))],
    ids=["statevector", "noisy"],
)


class TestProtocol:
    @BOTH_BACKENDS
    def test_implementations_satisfy_protocol(self, backend):
        assert isinstance(backend, ExecutionBackend)
        assert isinstance(backend.name, str)

    @BOTH_BACKENDS
    def test_run_returns_one_result_per_circuit(self, backend):
        circuits = [ghz_state(4), ghz_state(3), ghz_state(3)]
        results = backend.run(circuits, shots=128, seed=1)
        assert len(results) == 3
        assert all(r.shots == 128 for r in results)
        assert all(sum(r.counts.values()) == 128 for r in results)

    def test_seed_determinism(self):
        backend = StatevectorBackend()
        a = backend.run(ghz_state(4), shots=512, seed=42)
        b = backend.run(ghz_state(4), shots=512, seed=42)
        c = backend.run(ghz_state(4), shots=512, seed=43)
        assert dict(a[0].counts) == dict(b[0].counts)
        assert dict(a[0].counts) != dict(c[0].counts) or a[0].counts != c[0].counts


class TestNormalizeBatch:
    def test_single_circuit_becomes_a_batch_of_one(self):
        circuit = ghz_state(3)
        assert normalize_batch(circuit) == [circuit]

    def test_sweep_passes_through(self):
        template = hardware_efficient_ansatz(4)
        sweep = ParameterSweep([template], [[0.1] * 16, [0.2] * 16])
        assert normalize_batch(sweep) is sweep

    def test_rejects_unbound_leftovers(self):
        with pytest.raises(ValueError, match="unbound"):
            normalize_batch(hardware_efficient_ansatz(4))

    def test_rejects_empty_batch(self):
        with pytest.raises(ValueError):
            normalize_batch([])


class TestShotsValidation:
    """``shots < 1`` is a typed failure on every path, before any RNG moves
    (the ideal backend used to return empty counts, the gradient came back
    all zero and the ideal trainer "trained" without moving theta)."""

    @BOTH_BACKENDS
    @pytest.mark.parametrize("shots", [0, -3])
    def test_backends_reject_before_touching_the_rng(self, backend, shots):
        template = hardware_efficient_ansatz(4)
        sweep = ParameterSweep([template], [[0.1] * 16, [0.2] * 16])
        for batch in (ghz_state(3), [ghz_state(3)], sweep):
            rng = np.random.default_rng(5)
            before = rng.bit_generator.state
            with pytest.raises(ValueError, match="shots must be >= 1"):
                backend.run(batch, shots=shots, rng=rng)
            assert rng.bit_generator.state == before

    def test_sampled_gradient_rejects(self, vqe_problem):
        theta = np.zeros(vqe_problem.estimator.num_parameters)
        with pytest.raises(ValueError, match="shots must be >= 1"):
            sampled_parameter_shift_gradient(
                vqe_problem.estimator, theta, StatevectorBackend(), shots=0, seed=1
            )

    def test_ideal_trainer_rejects(self, vqe_problem):
        with pytest.raises(ValueError, match="^shots must be an integer >= 1 "):
            IdealTrainer(vqe_problem.estimator, shots=0, seed=1)


class TestTranspileCache:
    def test_shared_across_clients_with_common_topology(self):
        cache = TranspileCache()
        template = hardware_efficient_ansatz(4)
        topology = build_qpu("Belem").topology
        first = cache.get_or_transpile(template, topology)
        second = cache.get_or_transpile(template, topology)
        assert first is second
        assert cache.hits == 1
        assert cache.misses == 1
        assert len(cache) == 1

    def test_distinct_topologies_get_distinct_entries(self):
        cache = TranspileCache()
        template = hardware_efficient_ansatz(4)
        cache.get_or_transpile(template, build_qpu("Belem").topology)
        cache.get_or_transpile(template, build_qpu("Toronto").topology)
        assert len(cache) == 2
        assert cache.misses == 2

    def test_second_ensemble_over_same_objective_misses_nothing(self):
        from repro.core.ensemble import EQCConfig, EQCEnsemble
        from repro.core.objective import EnergyObjective

        problem = heisenberg_vqe_problem()
        objective = EnergyObjective(problem.estimator)
        config = EQCConfig(device_names=("x2", "Belem", "Bogota"), shots=128, seed=0)
        theta = problem.random_initial_parameters(seed=0)
        first = EQCEnsemble(objective, config)
        first.train(theta, num_epochs=1)
        misses = first.transpile_cache.misses
        second = EQCEnsemble(objective, config)
        assert second.transpile_cache is first.transpile_cache is shared_transpile_cache()
        second.train(theta, num_epochs=1)
        assert shared_transpile_cache().misses == misses

    def test_hit_returns_a_transpilation_of_its_own_template(self):
        def template():
            theta = Parameter("t")
            circuit = QuantumCircuit(3)
            circuit.ry(theta, 0)
            circuit.cx(0, 2)
            circuit.rz(theta, 2)
            return circuit

        cache = TranspileCache()
        topology = build_qpu("Belem").topology
        templates = [template(), template()]
        results = [cache.get_or_transpile(t, topology) for t in templates]
        for circuit, result in zip(templates, results):
            assert result.physical_circuit.parameters <= circuit.parameters
            assert result.logical_circuit is circuit
        assert cache.misses == 2

    def test_results_are_read_only(self):
        result = TranspileCache().get_or_transpile(
            hardware_efficient_ansatz(4), build_qpu("Belem").topology
        )
        for field in dataclasses.fields(result):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(result, field.name, getattr(result, field.name))


class TestBackendGradient:
    def test_sampled_sweep_tracks_exact_gradient(self):
        problem = heisenberg_vqe_problem()
        theta = np.linspace(-0.4, 0.8, problem.estimator.num_parameters)
        exact = exact_full_gradient(problem.estimator, theta)
        sampled = sampled_parameter_shift_gradient(
            problem.estimator,
            theta,
            backend=StatevectorBackend(),
            shots=16384,
            seed=2,
        )
        assert sampled.shape == exact.shape
        assert np.max(np.abs(sampled - exact)) < 0.35

    def test_sweep_batch_is_one_structure_group(self):
        problem = heisenberg_vqe_problem()
        theta = np.zeros(problem.estimator.num_parameters)
        circuits = parameter_shift_batch(problem.estimator, theta)
        groups = problem.estimator.num_groups
        assert len(circuits) == 2 * len(theta) * groups
        signatures = {c.structure_key for c in circuits}
        # one signature per measurement group: the whole sweep vectorizes
        # into `groups` stacked passes regardless of parameter count
        assert len(signatures) == groups


class TestUnmeasuredCircuitOnADevice:
    """A circuit without a measure instruction is read out on every qubit — by
    a device as by the statevector backend — while Eq. 2 still charges the
    footprint's zero measurements."""

    def test_device_reads_the_register_the_mixer_samples(self):
        ghz3 = ghz_state(3, measure=False)
        qpu = build_qpu("Bogota")
        (result,) = NoisyBackend(qpu).run(ghz3, shots=2048, seed=5, now=900.0)
        assert result.counts.num_bits == 3 and sum(result.counts.values()) == 2048
        (ideal,) = StatevectorBackend().run(ghz3, shots=2048, seed=5)
        assert ideal.counts.num_bits == 3

        parked = []
        (again,) = NoisyBackend(qpu).run(ghz3, shots=2048, seed=5, now=900.0, park=parked)
        (job,) = parked
        noise = _wave_noise([job.clock])
        (spec,) = noise.specs()
        assert len(spec.per_qubit_readout) == 3
        footprint = CircuitFootprint.from_circuit(ghz3)
        assert spec.success_probability == qpu.true_success_probability(footprint, 900.0)
        (row,) = noisy_probabilities_batch(job.circuits, noise)
        expected = reference.noisy_probabilities(ghz3, spec)
        assert np.max(np.abs(row - expected)) <= 1e-12
        # The one-circuit spec reads out the whole device; its first pairs
        # are the job's, and the mixer reads the same row through either.
        single = qpu.execution_noise(footprint, 900.0)
        assert len(single.per_qubit_readout) == qpu.num_qubits
        assert single.per_qubit_readout[:3] == spec.per_qubit_readout
        assert (single.success_probability, single.coherent_bias) == (
            spec.success_probability,
            spec.coherent_bias,
        )
        (again_row,) = noisy_probabilities_batch(job.circuits, [single])
        assert again_row.tobytes() == row.tobytes()
        resolve_batches(parked)
        assert dict(again.counts) == dict(result.counts)
        assert again.metadata == result.metadata
        assert again.metadata["success_probability"] == spec.success_probability
