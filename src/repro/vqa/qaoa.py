"""The Quantum Approximate Optimization Algorithm (MaxCut) problem definition.

:func:`ring_maxcut_qaoa_problem` builds the paper's Fig. 10/11 experiment: a
single-layer QAOA ansatz (2 trainable parameters) over the 4-node unweighted
ring, optimized against the diagonal MaxCut Hamiltonian of Eq. 7.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..circuit.circuit import QuantumCircuit
from ..circuit.library import qaoa_maxcut_ansatz
from ..hamiltonian.expectation import EnergyEstimator
from ..hamiltonian.maxcut import RING_GRAPH_EDGES, MaxCutGraph, best_cut, cut_value, maxcut_graph, maxcut_hamiltonian
from ..hamiltonian.pauli import PauliSum

__all__ = ["QAOAProblem", "ring_maxcut_qaoa_problem"]


@dataclass
class QAOAProblem:
    """A QAOA MaxCut instance: graph + Hamiltonian + ansatz + references.

    ``graph`` is the :class:`MaxCutGraph` from :func:`maxcut_graph`; the
    optimal cut and every bitstring's cut weight are read from it.
    """

    name: str
    graph: MaxCutGraph
    hamiltonian: PauliSum
    ansatz: QuantumCircuit
    estimator: EnergyEstimator = field(init=False)
    ground_energy: float = field(init=False)
    optimal_cut_value: float = field(init=False)
    optimal_cut_bits: str = field(init=False)

    def __post_init__(self) -> None:
        self.estimator = EnergyEstimator(self.ansatz, self.hamiltonian)
        self.ground_energy = self.hamiltonian.ground_state_energy()
        self.optimal_cut_bits, self.optimal_cut_value = best_cut(self.graph)

    # ------------------------------------------------------------------
    @property
    def num_parameters(self) -> int:
        return self.estimator.num_parameters

    @property
    def num_qubits(self) -> int:
        return self.ansatz.num_qubits

    @property
    def num_edges(self) -> int:
        return len(self.graph.edges)

    def energy(self, values: Sequence[float]) -> float:
        """Exact expectation of the MaxCut Hamiltonian at a parameter vector."""
        return self.estimator.exact_energy(values)

    def normalized_cost(self, energy: float) -> float:
        """Per-edge MaxCut cost in ``[-1, 0]`` (the paper's Fig. 11/12 axis).

        ``-1`` would mean every edge is cut in expectation; the paper's best
        runs reach roughly ``-0.74`` for the 4-node ring with ``p = 1``.
        """
        if self.num_edges == 0:
            return 0.0
        return float(energy) / self.num_edges

    def cut_of_bitstring(self, bitstring: str) -> float:
        """Classical cut weight of one measured bitstring."""
        return cut_value(self.graph, bitstring)

    def approximation_ratio(self, energy: float) -> float:
        """``(expected cut) / (optimal cut)`` derived from the Hamiltonian value."""
        if self.optimal_cut_value == 0:
            return 0.0
        expected_cut = -float(energy)
        return expected_cut / self.optimal_cut_value

    def random_initial_parameters(self, seed: int = 11, scale: float = 0.75) -> np.ndarray:
        """A reproducible random starting point.

        Unlike VQE, the QAOA landscape has a saddle at the origin (zero cost
        and mixer angles give vanishing gradients), so the default scale
        places the two angles well away from it.
        """
        rng = np.random.default_rng(seed)
        return rng.uniform(0.1 * scale, scale, size=self.num_parameters)


def ring_maxcut_qaoa_problem(num_layers: int = 1) -> QAOAProblem:
    """The paper's 4-node unweighted ring MaxCut QAOA (Fig. 10/11)."""
    graph = maxcut_graph(4, RING_GRAPH_EDGES)
    hamiltonian = maxcut_hamiltonian(graph)
    ansatz = qaoa_maxcut_ansatz(4, RING_GRAPH_EDGES, num_layers=num_layers, measure=False)
    return QAOAProblem(
        name="ring_maxcut_4node",
        graph=graph,
        hamiltonian=hamiltonian,
        ansatz=ansatz,
    )
