"""Golden-history regression: the scheduler PR must not move the fallback.

The values below were captured from the pre-scheduler code (PR 1 state).
With no scheduler attached, ``CloudProvider`` prices queue waits through
``StatisticalQueuePolicy`` with the exact RNG consumption of the code it
replaced, so these seeded histories must stay bit-exact forever.
"""

import copy

import numpy as np

from repro.baselines.single_device import SingleDeviceTrainer
from repro.circuit import ghz_state
from repro.cloud.queueing import StatisticalQueuePolicy
from repro.core.objective import EnergyObjective
from repro.transpiler import transpile
from repro.vqa import heisenberg_vqe_problem

#: SingleDeviceTrainer on Belem, shots=256, seed=11,
#: theta = linspace(0.05, 1.55, 16), 2 epochs — captured from the
#: pre-sched code.
GOLDEN_SINGLE_LOSSES_HEX = [
    "0x1.1dabefc66599ap+2",
    "0x1.b11179c5c95fcp+1",
]
GOLDEN_SINGLE_HOURS_HEX = [
    "0x1.0d2d9d3f25668p-1",
    "0x1.0cf6119941ddep+0",
]


class TestStatisticalFallbackRegression:
    def test_default_provider_uses_statistical_policy(self):
        """No scheduler attached, and a job starts exactly when
        ``StatisticalQueuePolicy`` says (one draw from the endpoint stream)."""
        problem = heisenberg_vqe_problem()
        trainer = SingleDeviceTrainer(
            EnergyObjective(problem.estimator), "Belem", shots=256, seed=11
        )
        provider = trainer.provider
        assert provider.scheduler is None
        endpoint = copy.deepcopy(provider._endpoint("Belem"))
        expected_start = StatisticalQueuePolicy().start_time(endpoint, 120.0)
        circuit = ghz_state(4)
        footprint = transpile(circuit, provider.qpu("Belem").topology).footprint
        job = provider.submit("Belem", [circuit], footprint, now=120.0)
        assert job.start_time == expected_start

    def test_single_device_history_bit_exact(self):
        problem = heisenberg_vqe_problem()
        trainer = SingleDeviceTrainer(
            EnergyObjective(problem.estimator),
            "Belem",
            shots=256,
            seed=11,
            max_wall_hours=1e9,
        )
        theta = np.linspace(0.05, 1.55, 16)
        history = trainer.train(theta, num_epochs=2)
        assert [float(l).hex() for l in history.losses] == GOLDEN_SINGLE_LOSSES_HEX
        assert [
            float(r.sim_time_hours).hex() for r in history.records
        ] == GOLDEN_SINGLE_HOURS_HEX
