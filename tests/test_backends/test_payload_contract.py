"""One payload contract for every backend: a sweep vs its bound circuits.

``backend.run`` accepts a gradient job either as an unbound
``ParameterSweep`` or as the bound circuits it stands for.  Whichever form
arrives, the outside sees the same thing — identical counts in flat order,
the same RNG stream consumption, and on a device the same durations and
noise metadata — and the sweep costs one engine execution per uniform job.
"""

import numpy as np
import pytest

from repro.backends import NoisyBackend, StatevectorBackend
from repro.backends import statevector as statevector_module
from repro.core.objective import EnergyObjective, QnnObjective
from repro.devices import build_qpu
from repro.simulator import mixing as mixing_module
from repro.vqa.qnn import QNNProblem, make_synthetic_dataset
from repro.vqa.tasks import GradientTask

SEEDS = (0, 77)


def _energy_job(problem, parameter_index):
    objective = EnergyObjective(problem.estimator)
    theta = np.linspace(-0.7, 0.9, objective.num_parameters)
    task = GradientTask(task_id=0, parameter_index=parameter_index)
    return objective.build_job(task, theta)


def _qnn_job():
    problem = QNNProblem("qnn", make_synthetic_dataset(4, seed=3), num_qubits=4)
    theta = problem.random_initial_parameters(seed=4)
    task = GradientTask(task_id=0, parameter_index=2, data_index=1)
    return QnnObjective(problem).build_job(task, theta)


BACKENDS = {
    "ideal": StatevectorBackend,
    "noisy": lambda: NoisyBackend(build_qpu("Belem")),
}


@pytest.fixture(
    params=["heisenberg_gradient", "ring_qaoa", "qnn_centre_forward_backward"]
)
def job(request, vqe_problem, qaoa_problem):
    """A gradient job spec of each shape the trainers submit."""
    if request.param == "heisenberg_gradient":
        spec, templates, points = _energy_job(vqe_problem, 3), 3, 2
    elif request.param == "ring_qaoa":
        spec, templates, points = _energy_job(qaoa_problem, 1), 1, 2
    else:
        spec, templates, points = _qnn_job(), 1, 3
    assert len(spec.templates) == templates
    assert spec.batch.theta.shape[0] == points
    return spec


@pytest.fixture
def engine_calls(monkeypatch):
    """Row counts of every ``execute_program`` call either backend makes."""
    calls = []
    for module in (statevector_module, mixing_module):
        original = module.execute_program

        def counted(program, thetas, _original=original, **kwargs):
            calls.append(len(thetas))
            return _original(program, thetas, **kwargs)

        monkeypatch.setattr(module, "execute_program", counted)
    return calls


@pytest.mark.parametrize("kind", list(BACKENDS))
@pytest.mark.parametrize("seed", SEEDS)
def test_sweep_and_bound_circuits_are_indistinguishable(job, kind, seed, engine_calls):
    make_backend = BACKENDS[kind]
    # Only a device has a clock to start the batch on.
    context = {"now": 250.0} if kind == "noisy" else {}
    sweep = job.batch
    sweep_rng, bound_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    swept = make_backend().run(sweep, shots=256, rng=sweep_rng, **context)
    assert engine_calls == [len(sweep)]  # one engine pass for the whole job
    bound = make_backend().run(sweep.bound_circuits(), shots=256, rng=bound_rng, **context)

    assert len(swept) == len(bound) == len(sweep)
    assert [list(r.counts.items()) for r in swept] == [list(r.counts.items()) for r in bound]
    assert sweep_rng.bit_generator.state == bound_rng.bit_generator.state
    assert [r.duration_seconds for r in swept] == [r.duration_seconds for r in bound]
    if kind == "ideal":
        # Ideal: a sweep lowers to one merged group, its bound circuits to
        # one structure group per template.
        for results, groups in ((swept, 1), (bound, len(job.templates))):
            assert all(
                r.metadata == {"batch_size": len(sweep), "structure_groups": groups}
                for r in results
            )
    else:
        assert [r.metadata for r in swept] == [r.metadata for r in bound]
        assert all("success_probability" in r.metadata for r in swept)
