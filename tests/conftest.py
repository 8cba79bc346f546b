"""Shared fixtures for the EQC reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuit import ghz_state, hardware_efficient_ansatz, qaoa_maxcut_ansatz
from repro.devices import build_qpu
from repro.hamiltonian import heisenberg_square_lattice, ring_maxcut_hamiltonian
from repro.sched import workload as workload_module
from repro.vqa import heisenberg_vqe_problem, ring_maxcut_qaoa_problem


@pytest.fixture(autouse=True)
def forget_arrival_recordings(monkeypatch):
    """Start every test with an empty tenant-traffic recording table.

    Schedulers that share a seed, device and workload replay one process-wide
    arrival recording (``repro.sched.workload``); an empty table per test
    keeps which test draws and which replays independent of test order.
    Returns a function that empties the table again, for a test whose
    compared runs must each draw their traffic from the RNG.
    """

    def forget() -> None:
        monkeypatch.setattr(
            workload_module, "_RECORDINGS", workload_module._RecordingTable()
        )

    forget()
    return forget


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator for sampling tests."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def vqe_problem():
    """The paper's 4-qubit Heisenberg VQE problem (session-cached: exact
    diagonalization and ansatz construction are reused across tests)."""
    return heisenberg_vqe_problem()


@pytest.fixture(scope="session")
def qaoa_problem():
    """The paper's 4-node ring MaxCut QAOA problem."""
    return ring_maxcut_qaoa_problem()


@pytest.fixture(scope="session")
def heisenberg_h():
    return heisenberg_square_lattice()


@pytest.fixture(scope="session")
def maxcut_h():
    return ring_maxcut_hamiltonian()


@pytest.fixture
def ghz4():
    return ghz_state(4)


@pytest.fixture
def vqe_ansatz():
    return hardware_efficient_ansatz(4)


@pytest.fixture
def qaoa_ansatz():
    return qaoa_maxcut_ansatz(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


@pytest.fixture(scope="session")
def belem_qpu():
    return build_qpu("Belem")


@pytest.fixture(scope="session")
def x2_qpu():
    return build_qpu("x2")
