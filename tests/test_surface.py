"""The size of the public surface, pinned.

ROADMAP standard 2 asks for the least code and the fewest options; these
asserts turn growth of the execution protocol, the top-level, backends and
simulator packages and the ensemble configuration into a deliberate one-line
edit made in review.
"""

import dataclasses

import repro
import repro.backends
import repro.simulator
from repro.backends import ExecutionBackend
from repro.core.ensemble import EQCConfig


def test_execution_backend_has_one_method():
    public = {
        name
        for name, member in vars(ExecutionBackend).items()
        if callable(member) and not name.startswith("_")
    }
    assert public == {"run"}


def test_backends_package_exports():
    assert set(repro.backends.__all__) == {
        "ExecutionBackend",
        "StatevectorBackend",
        "NoisyBackend",
        "TranspileCache",
        "ProgramCache",
        "shared_program_cache",
        "normalize_batch",
        "measured_register",
        "template_structure_key",
    }
    assert len(repro.backends.__all__) == len(set(repro.backends.__all__))


def test_eqc_config_field_count():
    assert len(dataclasses.fields(EQCConfig)) == 18


def test_top_level_export_count():
    assert len(repro.__all__) == 89
    assert len(set(repro.__all__)) == len(repro.__all__)


def test_simulator_package_exports():
    assert set(repro.simulator.__all__) == {
        "Statevector",
        "simulate_statevector",
        "Counts",
        "ExecutionResult",
        "sample_distribution",
        "sample_distribution_batch",
        "sample_statevector",
        "sample_circuit_ideal",
        "apply_readout_error_batch",
        "MixingNoiseSpec",
        "NoiseRecord",
        "noisy_probabilities_batch",
    }
    assert len(repro.simulator.__all__) == len(set(repro.simulator.__all__))
