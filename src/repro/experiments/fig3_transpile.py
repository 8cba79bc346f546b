"""Figure 3 — the same circuit transpiled onto three different topologies.

The paper uses Belem (T-shape), x2 (fully connected) and Manila (line) to
illustrate that the identical logical circuit acquires different SWAP
overheads on different coupling maps.  The driver reports, per device, the
routed gate counts and depth of the Fig. 3 linear-entangler demo circuit (and
optionally of the Fig. 8 VQE ansatz).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..circuit.library import hardware_efficient_ansatz, linear_entangler_demo
from ..devices.catalog import device_spec
from ..transpiler.transpile import transpile
from ..analysis.reporting import format_table

__all__ = ["TranspilationRow", "fig3_transpilation", "render_fig3"]

DEFAULT_DEVICES: tuple[str, ...] = ("Belem", "x2", "Manila")


@dataclass(frozen=True)
class TranspilationRow:
    """Transpilation cost of one circuit on one device."""

    device: str
    topology: str
    circuit: str
    num_swaps: int
    single_qubit_gates: int
    two_qubit_gates: int
    critical_depth: int
    depth: int

    def as_dict(self) -> dict[str, object]:
        return {
            "device": self.device,
            "topology": self.topology,
            "circuit": self.circuit,
            "num_swaps": self.num_swaps,
            "G1": self.single_qubit_gates,
            "G2": self.two_qubit_gates,
            "critical_depth": self.critical_depth,
            "depth": self.depth,
        }


def fig3_transpilation(device_names: Sequence[str] = DEFAULT_DEVICES) -> list[TranspilationRow]:
    """Transpile the demo circuit and the VQE ansatz onto each device."""
    circuits = [
        ("fig3_demo", linear_entangler_demo(4)),
        ("fig8_vqe_ansatz", hardware_efficient_ansatz(4)),
    ]

    rows: list[TranspilationRow] = []
    for name in device_names:
        spec = device_spec(name)
        for circuit_name, circuit in circuits:
            result = transpile(circuit, spec.topology)
            rows.append(
                TranspilationRow(
                    device=name,
                    topology=spec.topology.name,
                    circuit=circuit_name,
                    num_swaps=result.num_swaps,
                    single_qubit_gates=result.footprint.num_single_qubit_gates,
                    two_qubit_gates=result.footprint.num_two_qubit_gates,
                    critical_depth=result.footprint.critical_depth,
                    depth=result.physical_circuit.depth(),
                )
            )
    return rows


def render_fig3(rows: Sequence[TranspilationRow] | None = None) -> str:
    """Text rendering of the Fig. 3 comparison."""
    rows = list(rows) if rows is not None else fig3_transpilation()
    return format_table([row.as_dict() for row in rows])
