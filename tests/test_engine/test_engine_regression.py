"""Seeded-history regressions pinning the compiled execution path.

The golden values below were captured from the pre-engine code (the PR-1
backend layer).  The compiled engine changes *how* probabilities are
computed (fusion, diagonal phase ops, zero-rebind sweeps) but not which
distributions are sampled or in which order, so a fixed seed must reproduce
every history bit for bit — this is the proof that CloudProvider/trainer
RNG consumption is unchanged.
"""

import numpy as np

from repro.backends import StatevectorBackend
from repro.baselines.ideal import IdealTrainer
from repro.vqa import heisenberg_vqe_problem
from repro.vqa.gradient import sampled_parameter_shift_gradient

#: sampled_parameter_shift_gradient(heisenberg estimator,
#: linspace(0.2, 1.1, 16), shots=256, seed=11) — captured from the PR-1 code
#: (its sequential and its batched backend agreed bit-exactly).
GOLDEN_GRADIENT_HEX = [
    "-0x1.2200000000000p-1",
    "-0x1.0a00000000000p+0",
    "-0x1.8100000000000p+0",
    "-0x1.cf00000000000p+0",
    "0x1.5000000000000p-3",
    "-0x1.f000000000000p-4",
    "0x1.e000000000000p-3",
    "0x1.0800000000000p-2",
    "-0x1.1800000000000p-2",
    "-0x1.6c00000000000p-1",
    "-0x1.5000000000000p-2",
    "-0x1.b400000000000p+0",
    "-0x1.8800000000000p-3",
    "-0x1.b000000000000p-4",
    "0x1.9800000000000p-2",
    "0x1.1000000000000p-4",
]

#: IdealTrainer(heisenberg estimator, shots=256, seed=3).train(theta, 3)
#: losses — captured from the PR-1 code.
GOLDEN_IDEAL_LOSSES_HEX = [
    "0x1.3162cd35a5ac3p+2",
    "0x1.baaf26f03ee1dp+1",
    "0x1.0896db9386300p+1",
]


def _theta(estimator):
    return np.linspace(0.2, 1.1, estimator.num_parameters)


class TestGradientRngConsumption:
    def test_backend_gradient_is_bit_exact(self, vqe_problem):
        grad = sampled_parameter_shift_gradient(
            vqe_problem.estimator,
            _theta(vqe_problem.estimator),
            StatevectorBackend(),
            shots=256,
            seed=11,
        )
        assert [v.hex() for v in grad] == GOLDEN_GRADIENT_HEX


class TestTrainerHistoryRegression:
    def test_ideal_trainer_history_is_bit_exact(self, vqe_problem):
        history = IdealTrainer(vqe_problem.estimator, shots=256, seed=3).train(
            _theta(vqe_problem.estimator), num_epochs=3
        )
        assert [float(l).hex() for l in history.losses] == GOLDEN_IDEAL_LOSSES_HEX

