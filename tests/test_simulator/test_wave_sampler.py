"""A device wave draws its shots in one sampler call.

``resolve_batches`` hands ``sample_distribution_batch`` a uniform wave's
whole ``(rows, 2**m)`` matrix with each job's row count, shots and stream:
the matrix is checked, clipped and renormalized once, then each job draws its
rows in one multinomial call from its own stream.  Against the job-by-job
loop it replaced (``tests/_reference/sampler.py``) the draws and every
stream's end state are equal; a bad row anywhere in a wave is refused before
any stream moves, with every job still parked; a stream shared by jobs of
different template waves still draws them in parked order (such a resolve
draws job by job).
"""

import copy

import numpy as np
import pytest
from _reference import sampler as reference
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.sweep import ParameterSweep
from repro.devices import qpu as qpu_module
from repro.devices.catalog import build_qpu
from repro.devices.qpu import CircuitFootprint, resolve_batches
from repro.simulator.sampler import sample_distribution_batch


def _state(stream):
    return stream.bit_generator.state


@st.composite
def waves(draw):
    """1-5 jobs of 1-4 rows over 1-4 bits, mixed shots (zero included),
    streams drawn from a pool of up to three (so jobs share some), rows
    off-normalized and with tiny negative drift, as noise mixing leaves them."""
    num_bits = draw(st.integers(1, 4))
    jobs = draw(st.integers(1, 5))
    blocks = [draw(st.integers(1, 4)) for _ in range(jobs)]
    shots = [draw(st.sampled_from([0, 1, 7, 256, 1000])) for _ in range(jobs)]
    pool = draw(st.integers(1, 3))
    owners = [draw(st.integers(0, pool - 1)) for _ in range(jobs)]
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(1 << num_bits), sum(blocks))
    probs *= 1 + rng.uniform(-1e-12, 1e-12, probs.shape)
    drift = rng.random(probs.shape) < 0.1
    drift[:, -1] = False  # every row keeps some mass
    probs[drift] = -1e-12
    streams = [np.random.default_rng((seed, index)) for index in range(pool)]
    return probs, num_bits, blocks, shots, streams, owners


class TestOneCallPerWave:
    @given(wave=waves())
    @settings(max_examples=150, deadline=None)
    def test_draws_and_end_states_equal_the_job_by_job_loop(self, wave):
        probs, num_bits, blocks, shots, streams, owners = wave
        ours, theirs = copy.deepcopy(streams), copy.deepcopy(streams)
        counts = sample_distribution_batch(
            probs, shots, [ours[o] for o in owners], num_bits, blocks=blocks
        )
        expected = reference.draw_job_by_job(probs, blocks, shots, [theirs[o] for o in owners])
        assert len(counts) == len(probs)
        rows = iter(counts)
        for draws, count in zip(expected, shots):
            for row in draws:
                got = next(rows)
                assert got.shots == count
                assert got._draws[got._row].tobytes() == row.tobytes()
        assert [_state(s) for s in ours] == [_state(s) for s in theirs]

    def test_a_job_decodes_as_one_block(self):
        probs = np.full((5, 4), 0.25)
        streams = [np.random.default_rng(1), np.random.default_rng(2)]
        counts = sample_distribution_batch(probs, [10, 20], streams, 2, blocks=[2, 3])
        assert counts[0]._draws is counts[1]._draws
        assert counts[2]._draws is counts[4]._draws is not counts[0]._draws
        assert [c.shots for c in counts] == [10, 10, 20, 20, 20]

    def test_blocks_must_split_the_rows_with_one_stream_and_shot_count_each(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="blocks"):
            sample_distribution_batch(np.full((3, 2), 0.5), [5, 5], [rng, rng], 1, blocks=[1, 1])
        with pytest.raises(ValueError, match="blocks"):
            sample_distribution_batch(np.full((3, 2), 0.5), [5], [rng, rng], 1, blocks=[1, 2])


BAD_ROWS = [
    (np.nan, "is not finite"),
    (np.inf, "is not finite"),
    (-np.inf, "is not finite"),
    (-0.5, "has a negative probability"),
    (None, "sums to zero"),
    ("overflow", "is not finite"),
]


class TestBadRows:
    @pytest.mark.parametrize("value, problem", BAD_ROWS)
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_a_bad_row_is_named_and_no_stream_moves(self, value, problem):
        probs = np.full((6, 4), 0.25)
        if value is None:
            probs[4] = 0.0
        elif value == "overflow":  # finite entries whose sum is inf
            probs[4, :2] = 1e308
        else:
            probs[4, 1] = value
        streams = [np.random.default_rng(index) for index in range(3)]
        before = [_state(s) for s in streams]
        with pytest.raises(ValueError, match=f"probability row 4 {problem}"):
            sample_distribution_batch(probs, [9, 9, 9], streams, 2, blocks=[2, 2, 2])
        assert [_state(s) for s in streams] == before


# ---------------------------------------------------------------------------
# through resolve_batches
# ---------------------------------------------------------------------------


def _park(templates, qpu, stream, parked, seed):
    theta = np.random.default_rng(seed).uniform(-np.pi, np.pi, (2, len(templates[0].parameters)))
    footprint = CircuitFootprint.from_circuit(templates[0])
    sweep = ParameterSweep(templates, theta)
    return qpu.execute_batch(sweep, footprint, 128, now=60.0 * seed, rng=stream, park=parked)


@pytest.fixture
def template_sets(qaoa_problem, vqe_problem):
    return qaoa_problem.estimator.template_circuits(), vqe_problem.estimator.template_circuits()


class TestResolve:
    @pytest.mark.parametrize("order", [(0, 1), (1, 0, 1), (0, 1, 0, 1), (0, 0, 1)])
    def test_a_shared_stream_draws_its_jobs_in_parked_order(self, template_sets, order):
        """Jobs of different template waves on one stream (and one job on a
        stream of its own) draw exactly as when each resolves alone, in turn."""
        qpu = build_qpu("Belem")
        shared, own = np.random.default_rng(5), np.random.default_rng(6)
        alone_shared, alone_own = copy.deepcopy(shared), copy.deepcopy(own)
        parked, waved, alone = [], [], []
        for seed, kind in enumerate(order):
            waved.append(_park(template_sets[kind], qpu, shared, parked, seed))
            alone.append(_park(template_sets[kind], qpu, alone_shared, None, seed))
        waved.append(_park(template_sets[0], qpu, own, parked, 9))
        alone.append(_park(template_sets[0], qpu, alone_own, None, 9))
        resolve_batches(parked)
        assert not parked
        facts = [[dict(r.counts) for r in results] for results in waved]
        assert facts == [[dict(r.counts) for r in results] for results in alone]
        assert _state(shared) == _state(alone_shared) and _state(own) == _state(alone_own)

    @pytest.mark.parametrize("bad_wave", [0, 1])
    def test_a_bad_row_in_any_wave_parks_every_job(self, template_sets, monkeypatch, bad_wave):
        """Before: the wave's first jobs drew and left ``parked``, then
        numpy's multinomial refused the NaN row."""
        real = qpu_module.noisy_probabilities_batch
        passes = []

        def poisoned(circuits, noise, blocks):
            rows = real(circuits, noise, blocks=blocks)
            if len(passes) == bad_wave:
                rows = rows.copy()
                rows[blocks[0] + 1, 0] = np.nan  # the second job's second row
            passes.append(len(rows))
            return rows

        monkeypatch.setattr(qpu_module, "noisy_probabilities_batch", poisoned)
        qpu = build_qpu("Belem")
        streams = [np.random.default_rng(index) for index in range(4)]
        before = [_state(s) for s in streams]
        parked = []
        for index, stream in enumerate(streams):
            _park(template_sets[index // 2], qpu, stream, parked, index)
        jobs = list(parked)
        with pytest.raises(ValueError, match="probability row [0-9]+ is not finite"):
            resolve_batches(parked)
        assert len(passes) == 2
        assert parked == jobs
        assert all(r.counts is None for job in jobs for r in job.results)
        assert [_state(s) for s in streams] == before
