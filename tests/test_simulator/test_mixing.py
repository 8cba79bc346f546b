"""Tests for the analytic mixing (fast noisy) executor, one circuit at a time."""

import numpy as np
import pytest

from repro.circuit import QuantumCircuit, ghz_state
from repro.devices.catalog import build_qpu
from repro.devices.qpu import CircuitFootprint
from repro.simulator.mixing import MixingNoiseSpec, noisy_probabilities_batch
from repro.simulator.sampler import sample_distribution_batch


def noisy_row(circuit, spec):
    """``circuit``'s noisy distribution as a one-row batch."""
    (row,) = noisy_probabilities_batch([circuit], [spec])
    return row


def sampled(circuit, spec, shots, rng):
    """One circuit's counts, drawn as a device job's physics half draws them."""
    (counts,) = sample_distribution_batch(
        noisy_probabilities_batch([circuit], [spec]), shots, rng, circuit.num_qubits
    )
    return counts


class TestMixingNoiseSpec:
    def test_valid_spec(self):
        spec = MixingNoiseSpec(success_probability=0.9, readout_p01=0.02, readout_p10=0.03)
        assert spec.success_probability == pytest.approx(0.9)

    def test_out_of_range_success_rejected(self):
        with pytest.raises(ValueError):
            MixingNoiseSpec(success_probability=1.2)

    def test_out_of_range_readout_rejected(self):
        with pytest.raises(ValueError):
            MixingNoiseSpec(success_probability=0.9, readout_p01=2.0)

    def test_per_qubit_readout_validated(self):
        with pytest.raises(ValueError):
            MixingNoiseSpec(success_probability=0.9, per_qubit_readout=((1.5, 0.0),))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("coherent_bias", float("nan")),
            ("coherent_bias", float("inf")),
            ("coherent_bias", float("-inf")),
            pytest.param("per_qubit_readout", ((1.5, 0.0),), id="per_qubit_readout-1.5"),
            pytest.param("per_qubit_readout", ((0.01, float("nan")),), id="per_qubit_readout-nan"),
        ],
    )
    def test_invalid_value_names_its_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} "):
            MixingNoiseSpec(success_probability=0.9, **{field: value})


class TestNoisyProbabilities:
    def test_perfect_execution_matches_ideal(self):
        circuit = ghz_state(3)
        probs = noisy_row(circuit, MixingNoiseSpec(success_probability=1.0))
        assert probs[0] == pytest.approx(0.5)
        assert probs[-1] == pytest.approx(0.5)

    def test_zero_success_gives_uniform(self):
        circuit = ghz_state(3)
        probs = noisy_row(circuit, MixingNoiseSpec(success_probability=0.0))
        assert np.allclose(probs, 1.0 / 8.0)

    def test_mixing_interpolates(self):
        circuit = ghz_state(2)
        probs = noisy_row(circuit, MixingNoiseSpec(success_probability=0.5))
        # 0.5 * [0.5, 0, 0, 0.5] + 0.5 * uniform(0.25)
        assert probs[0] == pytest.approx(0.375)
        assert probs[1] == pytest.approx(0.125)

    def test_readout_error_spreads_mass(self):
        circuit = QuantumCircuit(1).measure_all()
        probs = noisy_row(
            circuit, MixingNoiseSpec(success_probability=1.0, readout_p01=0.1, readout_p10=0.0)
        )
        assert probs[1] == pytest.approx(0.1)

    def test_distribution_normalized(self):
        circuit = ghz_state(4)
        probs = noisy_row(
            circuit,
            MixingNoiseSpec(success_probability=0.7, readout_p01=0.05, readout_p10=0.08),
        )
        assert probs.sum() == pytest.approx(1.0)

    def test_unbound_circuit_rejected(self):
        from repro.circuit import Parameter

        qc = QuantumCircuit(1).ry(Parameter("a"), 0).measure_all()
        with pytest.raises(ValueError):
            noisy_row(qc, MixingNoiseSpec(success_probability=1.0))


class TestExecuteWithMixing:
    def test_counts_total(self, rng):
        counts = sampled(ghz_state(3), MixingNoiseSpec(success_probability=0.8), 512, rng)
        assert counts.shots == 512
        assert sum(counts.values()) == 512

    def test_noise_introduces_non_ghz_outcomes(self, rng):
        counts = sampled(ghz_state(3), MixingNoiseSpec(success_probability=0.3), 5000, rng)
        bad = {k for k in counts if k not in ("000", "111")}
        assert bad

    def test_zero_shots_rejected(self, rng):
        circuit = ghz_state(2)
        footprint = CircuitFootprint.from_circuit(circuit)
        with pytest.raises(ValueError, match="shots must be >= 1"):
            build_qpu("Belem").execute_batch([circuit], footprint, 0, now=0.0, rng=rng)
