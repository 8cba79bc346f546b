"""Protocol-level tests for the execution-backend layer."""

import numpy as np
import pytest

from repro.backends import (
    BatchedStatevectorBackend,
    ExecutionBackend,
    NoisyBackend,
    StatevectorBackend,
    TranspileCache,
    normalize_batch,
    structure_signature,
)
from repro.circuit import ghz_state, hardware_efficient_ansatz
from repro.devices import build_qpu
from repro.vqa import heisenberg_vqe_problem, sampled_parameter_shift_gradient
from repro.vqa.gradient import exact_full_gradient, parameter_shift_batch


class TestProtocol:
    @pytest.mark.parametrize(
        "backend",
        [StatevectorBackend(), BatchedStatevectorBackend(), NoisyBackend(build_qpu("Belem"))],
        ids=["statevector", "batched", "noisy"],
    )
    def test_implementations_satisfy_protocol(self, backend):
        assert isinstance(backend, ExecutionBackend)
        assert isinstance(backend.name, str)

    @pytest.mark.parametrize(
        "backend", [StatevectorBackend(), BatchedStatevectorBackend()]
    )
    def test_run_returns_one_result_per_circuit(self, backend):
        circuits = [ghz_state(3), ghz_state(3), ghz_state(4)]
        results = backend.run(circuits, shots=128, seed=1)
        assert len(results) == 3
        assert all(r.shots == 128 for r in results)
        assert all(sum(r.counts.values()) == 128 for r in results)

    def test_seed_determinism(self):
        backend = BatchedStatevectorBackend()
        a = backend.run(ghz_state(4), shots=512, seed=42)
        b = backend.run(ghz_state(4), shots=512, seed=42)
        c = backend.run(ghz_state(4), shots=512, seed=43)
        assert dict(a[0].counts) == dict(b[0].counts)
        assert dict(a[0].counts) != dict(c[0].counts) or a[0].counts != c[0].counts


class TestNormalizeBatch:
    def test_broadcasts_template_over_bindings(self):
        template = hardware_efficient_ansatz(4)
        bound = normalize_batch(template, [[0.1] * 16, [0.2] * 16, [0.3] * 16])
        assert len(bound) == 3
        assert all(c.is_bound for c in bound)

    def test_pairwise_binding(self):
        t = hardware_efficient_ansatz(4)
        bound = normalize_batch([t, t], [[0.1] * 16, [0.2] * 16])
        assert len(bound) == 2

    def test_mapping_bindings(self):
        template = hardware_efficient_ansatz(4)
        mapping = {p: 0.5 for p in template.ordered_parameters()}
        bound = normalize_batch(template, [mapping])
        assert bound[0].is_bound

    def test_rejects_mismatched_lengths(self):
        t = hardware_efficient_ansatz(4)
        with pytest.raises(ValueError, match="align"):
            normalize_batch([t, t, t], [[0.1] * 16, [0.2] * 16])

    def test_rejects_unbound_leftovers(self):
        with pytest.raises(ValueError, match="unbound"):
            normalize_batch(hardware_efficient_ansatz(4))

    def test_rejects_empty_batch(self):
        with pytest.raises(ValueError):
            normalize_batch([])


class TestStructureSignature:
    def test_bindings_share_signature(self):
        template = hardware_efficient_ansatz(4)
        a = template.assign_by_order([0.1] * 16)
        b = template.assign_by_order([0.9] * 16)
        assert structure_signature(a) == structure_signature(b)

    def test_different_structures_differ(self):
        assert structure_signature(ghz_state(4)) != structure_signature(ghz_state(5))


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

    def test_ensemble_clients_share_one_cache(self):
        from repro.core.ensemble import EQCConfig, EQCEnsemble
        from repro.core.objective import EnergyObjective

        problem = heisenberg_vqe_problem()
        ensemble = EQCEnsemble(
            EnergyObjective(problem.estimator),
            EQCConfig(device_names=("x2", "Belem", "Bogota"), shots=128, seed=0),
        )
        assert all(
            client.transpile_cache is ensemble.transpile_cache
            for client in ensemble.clients
        )


class TestBackendSwap:
    def test_ideal_backend_on_endpoint_keeps_device_clock(self):
        """Swapping an ideal backend into a cloud endpoint changes the
        physics, not the schedule: jobs still occupy device time."""
        from repro.baselines.single_device import SingleDeviceTrainer
        from repro.core.objective import EnergyObjective

        problem = heisenberg_vqe_problem()
        trainer = SingleDeviceTrainer(
            EnergyObjective(problem.estimator),
            "Belem",
            shots=128,
            seed=0,
            backend_factory=lambda qpu: StatevectorBackend(),
        )
        history = trainer.train(np.zeros(16), num_epochs=1)
        utilization = trainer.provider.utilization_report()["Belem"]
        assert history.total_hours() > 0
        assert utilization["busy_seconds"] > 0

    def test_ideal_and_noisy_endpoints_run_on_one_device_clock(self):
        """Same seed, same first job: the timing is identical whichever
        backend does the physics, and it is the device's own batch clock."""
        from repro.cloud.provider import CloudProvider
        from repro.transpiler import transpile

        circuit = ghz_state(4)
        footprint = transpile(circuit, build_qpu("Belem").topology).footprint
        ideal = CloudProvider(
            [build_qpu("Belem")],
            seed=4,
            shots=64,
            backend_factory=lambda qpu: StatevectorBackend(),
        )
        noisy = CloudProvider([build_qpu("Belem")], seed=4, shots=64)
        start = noisy.preview_start_time("Belem", 7000.0)
        _, durations, elapsed = noisy.qpu("Belem").batch_clock(3, start)
        for provider in (ideal, noisy):
            job = provider.submit("Belem", [circuit] * 3, footprint, now=7000.0)
            assert job.start_time == start
            assert job.finish_time == start + elapsed
            assert [r.duration_seconds for r in job.results] == durations


class TestBackendGradient:
    def test_sampled_sweep_tracks_exact_gradient(self):
        problem = heisenberg_vqe_problem()
        theta = np.linspace(-0.4, 0.8, problem.estimator.num_parameters)
        exact = exact_full_gradient(problem.estimator, theta)
        sampled = sampled_parameter_shift_gradient(
            problem.estimator,
            theta,
            backend=BatchedStatevectorBackend(),
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
        signatures = {structure_signature(c) for c in circuits}
        # one signature per measurement group: the whole sweep vectorizes
        # into `groups` stacked passes regardless of parameter count
        assert len(signatures) == groups
