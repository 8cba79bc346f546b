"""The transpilation pipeline: decompose, lay out, route, summarize.

:func:`transpile` is the entry point the EQC client node calls once per
device (Algorithm 2, ``Transpile(C, Q)``): the resulting
:class:`TranspileResult` carries both the physical circuit template (still
parameterized) and its :class:`~repro.devices.qpu.CircuitFootprint`, which is
what the ``PCorrect`` weighting model and the device execution path consume.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..circuit.circuit import QuantumCircuit
from ..devices.qpu import CircuitFootprint
from ..devices.topology import Topology
from .decompose import decompose_to_basis
from .layout import Layout, select_layout
from .metrics import circuit_footprint
from .routing import RoutingResult, route_circuit

__all__ = ["TranspileResult", "transpile"]


@dataclass(frozen=True)
class TranspileResult:
    """Everything produced by transpiling one logical circuit for one device.

    Attributes:
        logical_circuit: the input circuit (untouched).
        physical_circuit: basis-gate circuit on physical qubits, SWAPs
            expanded; still parameterized if the input was.
        initial_layout: logical-to-physical map before routing.
        final_layout: logical-to-physical map after routing.
        footprint: structural cost summary (G1, G2, CD, M, used couplings).
        num_swaps: SWAPs inserted by the router.
        topology_name: device topology the circuit was routed for.
    """

    logical_circuit: QuantumCircuit
    physical_circuit: QuantumCircuit
    initial_layout: Layout
    final_layout: Layout
    footprint: CircuitFootprint
    num_swaps: int
    topology_name: str

    @property
    def swap_cnot_overhead(self) -> int:
        """CNOTs added purely for routing (three per SWAP)."""
        return 3 * self.num_swaps


def transpile(circuit: QuantumCircuit, topology: Topology) -> TranspileResult:
    """Transpile a logical circuit for a device topology.

    The pipeline is: basis decomposition -> initial layout -> SWAP routing ->
    footprint extraction.  Parameterized circuits stay parameterized (only
    structural rewriting happens), so a single transpilation can be reused for
    every parameter binding during training — exactly how EQC client nodes
    amortize the cost.
    """
    basis = decompose_to_basis(circuit)
    layout = select_layout(basis, topology)
    routed: RoutingResult = route_circuit(basis, topology, layout)
    footprint = circuit_footprint(routed.circuit)
    return TranspileResult(
        logical_circuit=circuit,
        physical_circuit=routed.circuit,
        initial_layout=routed.initial_layout,
        final_layout=routed.final_layout,
        footprint=footprint,
        num_swaps=routed.num_swaps,
        topology_name=topology.name,
    )
