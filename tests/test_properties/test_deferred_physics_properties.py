"""Differential properties of deferred device physics.

A device job is two halves: its clock is read at submit, its physics is
parked on the provider and resolved for every parked job together (one
stacked engine pass per set of shared templates).  The claim checked here is
that *when* and *with whom* a job's physics runs never shows: over arbitrary
interleavings of submits (2-5 endpoints, repeat submits to an endpoint that
is still parked, batches that can and cannot stack), result reads and
``snapshot_state()`` calls (which resolve nothing: a checkpoint stores parked
jobs parked), every job's counts, timing and metadata and every endpoint's
RNG state equal those of a provider that resolves every job inside its own
submit — each job simulated and sampled alone, a wave of one.
"""

from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import Parameter, QuantumCircuit, ghz_state
from repro.circuit.sweep import ParameterSweep
from repro.cloud.provider import CloudProvider
from repro.devices.catalog import build_fleet, build_qpu
from repro.devices.qpu import CircuitFootprint
from repro.sched import CloudScheduler
from repro.vqa import heisenberg_vqe_problem, ring_maxcut_qaoa_problem

FLEET = ("x2", "Belem", "Bogota", "Quito", "Manila")
FOOTPRINT = CircuitFootprint(
    num_single_qubit_gates=20, num_two_qubit_gates=8, critical_depth=12, num_measurements=4
)


class EagerProvider(CloudProvider):
    """A provider that never leaves a job parked: the reference, one job at a
    time."""

    def submit(self, *args, **kwargs):
        job = super().submit(*args, **kwargs)
        self.resolve()
        return job


def _split_register_templates():
    """Two templates over one parameter that measure different registers."""
    theta = Parameter("t")
    narrow = QuantumCircuit(3, "narrow").ry(theta, 0).cx(0, 1).measure(0).measure(1)
    wide = QuantumCircuit(3, "wide").ry(theta, 0).cx(0, 2).measure_all()
    return (narrow, wide)


def _wide_diagonal_templates(num_edges=8):
    """One 8-slot diagonal cost layer, then a different basis change each.

    The slot-angle GEMM of such a layer rounds by its row count (BLAS picks
    the reduction order by shape, visibly from ~6 slots up), so these are the
    jobs a stacked pass could get wrong.
    """
    parameters = [Parameter(f"g{i}") for i in range(num_edges)]
    templates = []
    for basis in ("z", "x", "y"):
        circuit = QuantumCircuit(4)
        for qubit in range(4):
            circuit.h(qubit)
        for index, parameter in enumerate(parameters):
            circuit.rzz(parameter, index % 4, (index + 1 + index // 4) % 4)
        for qubit in range(4):
            circuit.rx(parameters[qubit], qubit)
            if basis == "y":
                circuit.sdg(qubit)
            if basis != "z":
                circuit.h(qubit)
        templates.append(circuit.measure_all())
    return tuple(templates)


VQE_TEMPLATES = tuple(heisenberg_vqe_problem().estimator.template_circuits())
QAOA_TEMPLATES = tuple(ring_maxcut_qaoa_problem().estimator.template_circuits())
SPLIT_TEMPLATES = _split_register_templates()
WIDE_TEMPLATES = _wide_diagonal_templates()
SWEEP_TEMPLATES = {
    "vqe": VQE_TEMPLATES,
    "qaoa": QAOA_TEMPLATES,
    "split": SPLIT_TEMPLATES,
    "wide": WIDE_TEMPLATES,
}
BATCH_KINDS = ("vqe", "qaoa", "split", "bound", "ghz", "wide")


def make_batch(kind, rng):
    """A batch of the named kind; sweeps of one kind share template objects."""
    if kind == "ghz":
        return [ghz_state(4), ghz_state(3)]
    templates = SWEEP_TEMPLATES.get(kind, QAOA_TEMPLATES)
    points = int(rng.integers(1, 4))
    sweep = ParameterSweep(
        templates, rng.uniform(-np.pi, np.pi, (points, len(templates[0].parameters)))
    )
    return sweep.bound_circuits() if kind == "bound" else sweep


def make_provider(devices, provider_class, clock, outage):
    scheduler = CloudScheduler(policy="fifo", seed=3) if clock == "kernel" else None
    provider = provider_class(
        [build_qpu(name) for name in devices], seed=3, scheduler=scheduler
    )
    if scheduler is not None and outage is not None:
        # Whatever is in service anywhere when the window opens is cut and
        # re-entered when it closes.
        for name in devices:
            scheduler.inject_outage(name, start=outage[0], duration=outage[1])
    return provider


def job_facts(job):
    return (
        job.start_time,
        job.finish_time,
        [
            (dict(r.counts), r.shots, r.duration_seconds, r.queue_seconds, r.metadata)
            for r in job.results
        ],
    )


#: A round is a burst of submits (device indices, repeats allowed: a repeat is
#: a submit to an endpoint that is still parked) and then what cuts the wave.
rounds = st.lists(
    st.tuples(
        st.lists(st.integers(0, 4), min_size=1, max_size=7),
        st.sampled_from(("read", "snapshot", "nothing")),
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=150, deadline=None)
@given(
    num_devices=st.integers(2, 5),
    rounds=rounds,
    clock=st.sampled_from(("statistical", "kernel")),
    outage=st.one_of(st.none(), st.tuples(st.floats(1.0, 600.0), st.floats(50.0, 400.0))),
    seed=st.integers(0, 2**16),
)
def test_deferred_physics_equals_one_job_at_a_time(num_devices, rounds, clock, outage, seed):
    devices = FLEET[-num_devices:]
    deferred = make_provider(devices, CloudProvider, clock, outage)
    eager = make_provider(devices, EagerProvider, clock, outage)
    rng = np.random.default_rng(seed)  # batch kinds, angles, shots, arrival gaps
    jobs = []
    now = 0.0
    for burst, cut in rounds:
        for device in burst:
            now += float(rng.uniform(0.0, 120.0))
            batch = make_batch(rng.choice(BATCH_KINDS, p=(0.15, 0.3, 0.1, 0.1, 0.1, 0.25)), rng)
            shots = int(rng.choice((16, 64, 200)))
            jobs.append(
                tuple(
                    provider.submit(
                        devices[device % num_devices], batch, FOOTPRINT, now=now, shots=shots
                    )
                    for provider in (deferred, eager)
                )
            )
            assert not eager._parked
        if cut == "read":
            ours, reference = jobs[int(rng.integers(len(jobs)))]
            assert job_facts(ours) == job_facts(reference)
        elif cut == "snapshot":
            # A snapshot cuts nothing: whatever is parked stays parked, and
            # the streams it captures are those of the last resolved wave.
            parked = list(deferred._parked)
            streams = deferred.snapshot_state()
            assert deferred._parked == parked
            if not parked:
                assert streams == eager.snapshot_state()
    # Jobs nobody read (stragglers) draw their shots all the same.
    deferred.resolve()
    assert deferred.snapshot_state() == eager.snapshot_state()
    for ours, reference in jobs:
        assert job_facts(ours) == job_facts(reference)


def _parked_wave(kinds, shots, provider_class=CloudProvider, seed=7):
    fleet = build_fleet()[: len(kinds)]
    provider = provider_class(fleet, seed=1)
    rng = np.random.default_rng(seed)
    jobs = [
        provider.submit(qpu.name, make_batch(kind, rng), FOOTPRINT, now=0.0, shots=n)
        for qpu, kind, n in zip(fleet, kinds, shots)
    ]
    return provider, jobs


@pytest.mark.parametrize("width", range(2, 11))
def test_wide_diagonal_layers_stack_bit_equal_at_any_wave_width(width, monkeypatch):
    """Not only the counts: the distributions themselves, to the last bit.

    Shots cannot see a 1e-16 slip, so the rows each job samples from are
    compared as bytes — up to the whole ten-device fleet in one pass.
    """
    from repro.devices import qpu as qpu_module

    sampled = []
    sample = qpu_module.sample_distribution_batch

    def recording(probabilities, shots, rng, num_bits, blocks):
        for stop, size in zip(accumulate(blocks), blocks):
            sampled.append(probabilities[stop - size : stop].tobytes())
        return sample(probabilities, shots, rng, num_bits, blocks)

    monkeypatch.setattr(qpu_module, "sample_distribution_batch", recording)
    kinds, shots = ("wide",) * width, (256,) * width
    for seed in range(12):
        deferred, jobs = _parked_wave(kinds, shots, seed=seed)
        assert len(deferred._parked) == width and not sampled
        deferred.resolve()
        stacked = sampled[:]
        del sampled[:]
        eager, reference = _parked_wave(kinds, shots, EagerProvider, seed)
        assert stacked == sampled
        del sampled[:]
        assert [job_facts(j) for j in jobs] == [job_facts(j) for j in reference]
        assert deferred.snapshot_state() == eager.snapshot_state()


def _count_passes(monkeypatch):
    from repro.devices import qpu as qpu_module

    calls = []
    real = qpu_module.noisy_probabilities_batch

    def counting(circuits, noises, **blocks):
        calls.append(len(noises))
        return real(circuits, noises, **blocks)

    monkeypatch.setattr(qpu_module, "noisy_probabilities_batch", counting)
    return calls


def test_jobs_sharing_templates_resolve_as_one_pass(monkeypatch):
    calls = _count_passes(monkeypatch)
    # Unequal shots stack too: shots only matter when each job samples.
    provider, jobs = _parked_wave(("qaoa", "qaoa", "qaoa", "qaoa"), (64, 64, 200, 16))
    assert len(provider._parked) == 4 and not calls
    assert [r.counts.shots for job in jobs for r in job.results[:1]] == [64, 64, 200, 16]
    assert calls == [sum(job.num_circuits for job in jobs)]
    assert not provider._parked


def test_batches_that_cannot_stack_run_their_own_pass(monkeypatch):
    calls = _count_passes(monkeypatch)
    provider, jobs = _parked_wave(("qaoa", "vqe", "bound", "split", "ghz"), (64,) * 5)
    jobs[0].results
    assert sorted(calls) == sorted(job.num_circuits for job in jobs)


def test_a_failing_pass_leaves_every_job_parked(monkeypatch):
    """Typed and total: the error reaches the reader, nothing is half done."""
    from repro.devices import qpu as qpu_module

    provider, jobs = _parked_wave(("qaoa", "vqe", "qaoa"), (64, 64, 64))
    streams = provider._endpoints
    before = {name: e.rng.bit_generator.state for name, e in streams.items()}
    real = qpu_module.noisy_probabilities_batch
    passes = []

    def failing_second_pass(circuits, noises, **blocks):
        passes.append(len(noises))
        if len(passes) == 2:
            raise FloatingPointError("engine pass failed")
        return real(circuits, noises, **blocks)

    monkeypatch.setattr(qpu_module, "noisy_probabilities_batch", failing_second_pass)
    with pytest.raises(FloatingPointError, match="engine pass failed"):
        jobs[0].results
    # The first wave's pass succeeded, yet nothing was sampled or filled.
    assert len(passes) == 2 and len(provider._parked) == 3
    assert all(r.counts is None for job in jobs for r in job.parked_results)
    assert {n: e.rng.bit_generator.state for n, e in streams.items()} == before

    # Once the pass works again the same read completes, bit-equal to a run
    # that never failed.
    monkeypatch.setattr(qpu_module, "noisy_probabilities_batch", real)
    clean, clean_jobs = _parked_wave(("qaoa", "vqe", "qaoa"), (64, 64, 64))
    assert [job_facts(j) for j in jobs] == [job_facts(j) for j in clean_jobs]
    assert provider.snapshot_state() == clean.snapshot_state()
