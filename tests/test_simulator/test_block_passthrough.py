"""Stacked jobs through ``noisy_probabilities_batch``: each job as if alone.

A wave of device jobs over one template tuple lowers to one group that holds
the whole batch, so the jobs' ``blocks`` are the group's own row counts and
go to ``execute_program`` as they are.  A batch that lowers to several
groups maps the blocks through each group's flat positions.  Either way a
job's rows must be byte-equal to that job run alone.
"""

import numpy as np
import pytest

from repro.circuit import Parameter, ParameterSweep, QuantumCircuit
from repro.simulator import mixing
from repro.simulator.mixing import NoiseRecord, noisy_probabilities_batch


def _record(rows, bits, seed):
    rng = np.random.default_rng(seed)
    return NoiseRecord(
        rng.uniform(0.6, 0.99, rows),
        rng.uniform(-0.1, 0.1, rows),
        rng.uniform(0.0, 0.06, (rows, bits, 2)),
        np.zeros(rows, dtype=bool),
    )


def _concat(records):
    columns = zip(*(record._columns() for record in records))
    return NoiseRecord(*(np.concatenate(column) for column in columns))


def _jobs(templates, points, bits):
    width = len(templates[0].parameters)
    rng = np.random.default_rng(11)
    thetas = [rng.uniform(-np.pi, np.pi, (count, width)) for count in points]
    records = [_record(count * len(templates), bits, seed) for seed, count in enumerate(points)]
    return thetas, records


@pytest.fixture
def executions(monkeypatch):
    """The ``blocks`` every ``execute_program`` call of the mixer receives."""
    seen = []
    real = mixing.execute_program

    def spy(program, thetas, **kwargs):
        seen.append(kwargs.get("blocks"))
        return real(program, thetas, **kwargs)

    monkeypatch.setattr(mixing, "execute_program", spy)
    return seen


def test_a_stacked_wave_passes_its_blocks_through(vqe_problem, executions):
    templates = vqe_problem.estimator.template_circuits()
    thetas, records = _jobs(templates, (2, 4, 2), 4)
    blocks = [6, 12, 6]
    rows = noisy_probabilities_batch(
        ParameterSweep(templates, np.vstack(thetas)), _concat(records), blocks=blocks
    )
    assert executions == [blocks]
    assert executions[0] is blocks
    start = 0
    for theta, record, block in zip(thetas, records, blocks):
        alone = noisy_probabilities_batch(ParameterSweep(templates, theta), record)
        assert rows[start : start + block].tobytes() == alone.tobytes()
        start += block


def test_a_multi_group_batch_maps_its_blocks_through_the_positions(executions):
    p, q = Parameter("p"), Parameter("q")
    ansatz = QuantumCircuit(3).ry(p, 0).ry(q, 1).cx(0, 1).rzz(q, 1, 2).rx(p, 2)
    templates = [
        ansatz.copy().measure_all(),
        ansatz.copy().h(0).measure(0).measure(1),
        ansatz.copy().h(2).measure_all(),
    ]
    thetas, records = _jobs(templates, (1, 3, 2), 3)
    blocks = [3, 9, 6]
    rows = noisy_probabilities_batch(
        ParameterSweep(templates, np.vstack(thetas)), _concat(records), blocks=blocks
    )
    # Two groups: templates 0 and 2 (whole register), template 1 (two bits).
    assert executions == [[2, 6, 4], [1, 3, 2]]
    start = 0
    for theta, record, block in zip(thetas, records, blocks):
        alone = noisy_probabilities_batch(ParameterSweep(templates, theta), record)
        assert len(alone) == block
        for row, want in zip(rows[start : start + block], alone):
            assert row.tobytes() == want.tobytes()
        start += block
