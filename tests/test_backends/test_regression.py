"""Seeded-history regression tests pinning the refactored execution stack.

The golden values below were captured from the pre-backend (seed) code.
Both the pluggable-backend refactor and the compiled-engine rewire must
leave every seeded history bit-exact: the execution paths sample the same
distributions in the same order from the same RNG streams, and the compiled
probabilities agree with the historical ones far below the multinomial
sampler's decision thresholds.
"""

import numpy as np

from repro.baselines.ideal import IdealTrainer
from repro.core.ensemble import EQCConfig, EQCEnsemble
from repro.core.objective import EnergyObjective
from repro.vqa import heisenberg_vqe_problem

#: EQCEnsemble.train on ("x2", "Belem", "Bogota"), shots=512, seed=7,
#: theta = linspace(0.1, 1.6, 16), 3 epochs — captured from the seed code.
GOLDEN_EQC_LOSSES_HEX = [
    "0x1.10fcf2a498d71p+2",
    "0x1.b736331e78ed3p+1",
    "0x1.681b543bbe420p+1",
]
GOLDEN_EQC_HOURS_HEX = [
    "0x1.63f4b7cd1b847p-3",
    "0x1.583a87d2c68f9p-2",
    "0x1.069b989bbb035p-1",
]


def _golden_run():
    problem = heisenberg_vqe_problem()
    config = EQCConfig(device_names=("x2", "Belem", "Bogota"), shots=512, seed=7)
    theta = np.linspace(0.1, 1.6, 16)
    return EQCEnsemble(EnergyObjective(problem.estimator), config).train(
        theta, num_epochs=3
    )


class TestEnsembleHistoryRegression:
    def test_train_history_unchanged_for_fixed_seed(self):
        history = _golden_run()
        assert [float(l).hex() for l in history.losses] == GOLDEN_EQC_LOSSES_HEX
        assert [
            float(r.sim_time_hours).hex() for r in history.records
        ] == GOLDEN_EQC_HOURS_HEX


class TestIdealTrainerBackendRouting:
    def test_default_backend_name_is_recorded(self, vqe_problem):
        trainer = IdealTrainer(vqe_problem.estimator, shots=128, seed=0)
        assert trainer.backend.name == "statevector"
        history = trainer.train(np.zeros(16), num_epochs=1)
        assert history.metadata["backend"] == "statevector"
