"""Expectation-value estimation: exact, from distributions, and from counts."""

from __future__ import annotations

from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from ..circuit.circuit import QuantumCircuit
from ..circuit.parameters import Parameter
from ..circuit.sweep import checked_theta
from ..reduction import ordered_sum
from ..simulator.result import Counts
from ..simulator.statevector import simulate_statevector
from .grouping import MeasurementGroup, group_qubitwise_commuting, measurement_basis_circuit
from .grouping import _expectations_from_draws, _tabled_draws
from .pauli import PauliSum

__all__ = [
    "exact_expectation",
    "expectation_from_group_counts",
    "EnergyEstimator",
]

#: Most products (16 MiB of float64) one step of a draw matrix's decode holds.
_DECODE_ELEMENTS = 1 << 21


def exact_expectation(
    circuit: QuantumCircuit,
    hamiltonian: PauliSum,
    parameter_values: Mapping[Parameter, float] | None = None,
) -> float:
    """Noise-free expectation ``<psi(theta)|H|psi(theta)>`` via statevector.

    Measurement directives are skipped by the simulator, so the circuit is
    simulated as given (its cached parameter set is reused across calls).
    """
    state = simulate_statevector(circuit, parameter_values)
    return hamiltonian.expectation_from_statevector(state.data)


def expectation_from_group_counts(
    groups: Sequence[MeasurementGroup],
    counts_per_group: Sequence[Counts | Mapping[str, int]],
) -> float:
    """Combine per-group measurement counts into one energy estimate."""
    if len(groups) != len(counts_per_group):
        raise ValueError("need exactly one Counts object per measurement group")
    return float(
        ordered_sum(
            group.expectation_from_counts(counts) for group, counts in zip(groups, counts_per_group)
        )
    )


class EnergyEstimator:
    """Pairs an ansatz with a Hamiltonian and produces measurable circuits.

    The estimator is the piece both the ideal baseline and the EQC client
    node share: it knows how to split ``H`` into qubit-wise commuting
    measurement groups, how to build the basis-rotated circuit for each
    group, and how to recombine the measured counts into an energy.

    Exact energies have one path, :meth:`exact_energy`: the dense
    statevector pass the seeded histories pin, for one point or a whole
    ``(points, P)`` sweep, with zero circuit binding.
    """

    def __init__(self, ansatz: QuantumCircuit, hamiltonian: PauliSum) -> None:
        if ansatz.num_qubits != hamiltonian.num_qubits:
            raise ValueError(
                "ansatz width does not match the Hamiltonian width "
                f"({ansatz.num_qubits} vs {hamiltonian.num_qubits})"
            )
        self.ansatz = ansatz.without_measurements()
        self.hamiltonian = hamiltonian
        self.groups: tuple[MeasurementGroup, ...] = tuple(
            group_qubitwise_commuting(hamiltonian)
        )
        self._group_tails = [measurement_basis_circuit(g.basis) for g in self.groups]
        self.parameters = self.ansatz.ordered_parameters()
        self._templates: tuple[QuantumCircuit, ...] | None = None

    # ------------------------------------------------------------------
    @property
    def num_parameters(self) -> int:
        return len(self.parameters)

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    def bindings(self, values: Sequence[float]) -> dict[Parameter, float]:
        """Map a flat parameter vector onto the ansatz parameters."""
        if len(values) != len(self.parameters):
            raise ValueError(
                f"expected {len(self.parameters)} parameter values, got {len(values)}"
            )
        return dict(zip(self.parameters, map(float, values)))

    def measurement_circuits(self, values: Sequence[float] | None = None) -> list[QuantumCircuit]:
        """One bound (or parameterized) circuit per measurement group.

        The composed ansatz+tail templates are built once and cached;
        binding produces fresh circuits off the cached templates.
        """
        templates = self.template_circuits()
        if values is None:
            return templates
        bindings = self.bindings(values)
        return [template.bind_parameters(bindings) for template in templates]

    def template_circuits(self) -> list[QuantumCircuit]:
        """The parameterized measurement circuits (one per group, cached)."""
        if self._templates is None:
            self._templates = tuple(
                self.ansatz.compose(tail) for tail in self._group_tails
            )
        return list(self._templates)

    @cached_property
    def _signed_tables(self) -> np.ndarray:
        """The groups' signed-coefficient tables, zero-padded into one array."""
        tables = [group._signed_coefficients for group in self.groups]
        width = max(table.shape[1] for table in tables)
        return np.stack([np.pad(table, ((0, 0), (0, width - table.shape[1]))) for table in tables])

    def energy_from_counts(self, counts_per_group: Sequence[Counts | Mapping[str, int]]) -> float:
        """Energy estimate from one Counts object per measurement group.

        A job's points are consecutive rows of its sampler call's one draw
        matrix (a wave): the first call on a matrix decodes all its rows into
        point energies, kept in the memo its rows share.  Any other Counts (a
        point off a group boundary, a ragged matrix, plain mappings) decode
        group by group.  Decoding is row-independent, a padded term adds
        ``+0.0`` and group values are summed in group order
        (:func:`~repro.reduction.ordered_sum`): the same bits either way."""
        groups = len(self.groups)
        if (
            len(counts_per_group) != groups
            or _tabled_draws(counts_per_group, self.hamiltonian.num_qubits) is None
            or counts_per_group[0]._row % groups
            or len(counts_per_group[0]._draws) % groups
        ):
            return expectation_from_group_counts(self.groups, counts_per_group)
        first, tables = counts_per_group[0], self._signed_tables
        matrix, memo = first._draws, first._decoded
        if self not in memo:
            step = groups * max(1, _DECODE_ELEMENTS // tables.size)
            values = np.concatenate([
                _expectations_from_draws(matrix[row : row + step], tables)
                for row in range(0, len(matrix), step)
            ]).tolist()
            memo[self] = [ordered_sum(values[r : r + groups]) for r in range(0, len(values), groups)]
        return memo[self][first._row // groups]

    def exact_energy(self, values: Sequence[float] | np.ndarray) -> float | np.ndarray:
        """Noise-free energy at a parameter vector, or one per row of a
        ``(points, P)`` matrix; a ``ValueError`` names a non-finite angle.

        Simulates the dense statevector gate by gate, resolving each angle
        from ``values`` without binding a circuit, then takes
        ``<psi|H|psi>`` against the dense Hamiltonian, row by row on one
        :func:`simulate_statevector` pass: each energy is bit-equal to its
        row alone, the losses pinned in the seeded histories.
        """
        theta = np.asarray(values, dtype=float)
        rows = checked_theta(theta, "exact_energy").tolist()
        states = simulate_statevector(self.ansatz, [self.bindings(row) for row in rows])
        energies = [self.hamiltonian.expectation_from_statevector(state) for state in states]
        return np.array(energies) if theta.ndim == 2 else energies[0]

    def ground_energy(self) -> float:
        """Exact ground-state energy of the Hamiltonian."""
        return self.hamiltonian.ground_state_energy()
