"""Differential test: a wave's draw matrix decoded once vs each point alone.

``sample_distribution_batch`` draws a device wave into one ``(rows, 2**n)``
matrix, and ``EnergyEstimator.energy_from_counts`` decodes every row of that
matrix on its first call, then answers the wave's other points from the
memo.  Decoding is row-independent, so every job's forward and backward
energies must equal, bit for bit, the decode of the point's rows alone and
the per-``Counts`` hits gather in ``tests/_reference/counts_decode.py``.  The
calls that cannot use the memo (a point that does not start on a group
boundary, a matrix whose row count is not a multiple of the groups, plain
mappings, rows split across two matrices), and a wave decoded a slab of
points at a time, must give the same bits too.
"""

from functools import cache
from unittest import mock

import numpy as np
from _reference import counts_decode as reference
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EQCConfig, EQCEnsemble
from repro.devices.catalog import DEFAULT_VQE_FLEET
from repro.hamiltonian import expectation
from repro.reduction import ordered_sum
from repro.simulator.result import Counts
from repro.simulator.sampler import sample_distribution_batch
from repro.vqa import heisenberg_vqe_problem, ring_maxcut_qaoa_problem

PROBLEMS = {"ring": ring_maxcut_qaoa_problem, "heisenberg": heisenberg_vqe_problem}


@cache
def _estimator(name):
    return PROBLEMS[name]().estimator


@st.composite
def waves(draw):
    """1-16 jobs of 2G rows (forward, backward) with mixed shots, zero included."""
    estimator = _estimator(draw(st.sampled_from(sorted(PROBLEMS))))
    jobs = draw(st.integers(1, 16))
    shots = [draw(st.sampled_from([0, 1, 7, 256, 1000])) for _ in range(jobs)]
    seed = draw(st.integers(0, 2**32 - 1))
    return estimator, shots, seed


def _draw(estimator, shots, seed):
    """The wave's Counts, as one sampler call over per-job streams draws them."""
    n, rows = estimator.hamiltonian.num_qubits, 2 * estimator.num_groups
    probs = np.random.default_rng(seed).dirichlet(np.ones(1 << n), rows * len(shots))
    streams = [np.random.default_rng((seed, job)) for job in range(len(shots))]
    return sample_distribution_batch(probs, shots, streams, n, blocks=[rows] * len(shots))


def _points(estimator, counts):
    groups = estimator.num_groups
    return [counts[start : start + groups] for start in range(0, len(counts), groups)]


def _alone(estimator, point):
    """The point's rows in a matrix of their own: the per-point decode."""
    draws = np.stack([histogram._draws[histogram._row] for histogram in point])
    return estimator.energy_from_counts(
        Counts._rows(
            draws, estimator.hamiltonian.num_qubits, point[0].shots, range(len(draws)), {}
        )
    )


def _reference(estimator, point):
    return ordered_sum(
        reference.expectation_from_hits(group, histogram)
        for group, histogram in zip(estimator.groups, point)
    )


def _moved(estimator, counts, before, after):
    """The wave's rows copied into a matrix with extra rows around them."""
    n = estimator.hamiltonian.num_qubits
    matrix = counts[0]._draws
    pad = np.zeros((1, matrix.shape[1]), dtype=np.int64)
    moved = np.vstack([pad] * before + [matrix] + [pad] * after)
    rows = [before + histogram._row for histogram in counts]
    return [
        Counts._rows(moved, n, histogram.shots, range(row, row + 1), {})[0]
        for histogram, row in zip(counts, rows)
    ]


class TestWaveDecode:
    @given(wave=waves())
    @settings(max_examples=120, deadline=None)
    def test_every_point_equals_its_rows_decoded_alone(self, wave):
        estimator, shots, seed = wave
        counts = _draw(estimator, shots, seed)
        assert all(histogram._draws is counts[0]._draws for histogram in counts)
        real = expectation._expectations_from_draws
        with mock.patch.object(expectation, "_expectations_from_draws", wraps=real) as spy:
            energies = [estimator.energy_from_counts(point) for point in _points(estimator, counts)]
        assert spy.call_count == 1  # the whole wave in one decode
        for energy, point in zip(energies, _points(estimator, counts)):
            assert energy.hex() == _alone(estimator, point).hex()
            assert energy.hex() == _reference(estimator, point).hex()

    @given(wave=waves(), points=st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_a_wave_decoded_in_slabs_gives_the_same_bits(self, wave, points):
        """A wide register's wave decodes a few points at a time; here every
        slab holds ``points`` points."""
        estimator, shots, seed = wave
        counts = _draw(estimator, shots, seed)
        table = estimator._signed_tables.size
        with mock.patch.object(expectation, "_DECODE_ELEMENTS", points * table):
            got = [estimator.energy_from_counts(point) for point in _points(estimator, counts)]
        for energy, point in zip(got, _points(estimator, counts)):
            assert energy.hex() == _reference(estimator, point).hex()

    @given(wave=waves(), cut=st.sampled_from(["misaligned", "ragged", "mapping", "split"]))
    @settings(max_examples=120, deadline=None)
    def test_calls_that_cannot_use_the_memo_give_the_same_bits(self, wave, cut):
        estimator, shots, seed = wave
        groups = estimator.num_groups
        counts = _draw(estimator, shots, seed)
        expected = [_reference(estimator, point).hex() for point in _points(estimator, counts)]
        if cut == "misaligned":  # every point starts one row after a boundary
            moved = _moved(estimator, counts, 1, groups - 1)
        elif cut == "ragged":  # a row count that is not a multiple of the groups
            moved = _moved(estimator, counts, 0, 1)
        elif cut == "mapping":
            moved = [Counts(dict(histogram), shots=histogram.shots) for histogram in counts]
        else:  # each point's first group in a matrix of its own
            moved = list(counts)
            for start in range(0, len(counts), groups):
                moved[start] = _moved(estimator, [counts[start]], 0, 0)[0]
        got = [estimator.energy_from_counts(point).hex() for point in _points(estimator, moved)]
        assert got == expected


def test_training_decodes_each_sampler_matrix_once_per_estimator(qaoa_problem):
    """A 10-device ring ensemble: each job's two energies come from the memo of
    its wave's matrix, so no matrix is decoded twice by one estimator."""
    real = expectation._expectations_from_draws
    decoded, seen = [], set()

    def spy(draws, tables):
        root = draws if draws.base is None else draws.base
        decoded.append((root, tables, len(draws) == len(root)))  # keeps the ids alive
        seen.add((id(root), id(tables)))
        return real(draws, tables)

    calls = []
    energy = expectation.EnergyEstimator.energy_from_counts

    def counted(self, counts_per_group):
        calls.append(len(counts_per_group))
        return energy(self, counts_per_group)

    config = EQCConfig(device_names=DEFAULT_VQE_FLEET, seed=3)  # ten devices
    ensemble = EQCEnsemble.for_estimator(qaoa_problem.estimator, config)
    theta = qaoa_problem.random_initial_parameters(seed=3)
    with (
        mock.patch.object(expectation, "_expectations_from_draws", spy),
        mock.patch.object(expectation.EnergyEstimator, "energy_from_counts", counted),
    ):
        history = ensemble.train(theta, num_epochs=10)
    assert history.total_updates == 10 * qaoa_problem.estimator.num_parameters
    assert len(seen) == len(decoded) > 0  # at most once per (matrix, estimator)
    assert all(whole for _, _, whole in decoded)
    assert len(decoded) < len(calls)  # waves hold several jobs
