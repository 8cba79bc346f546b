"""Exact staleness: each update lags its dispatch by the updates applied since.

The master computes an update's staleness as ``state.version`` at apply time
minus the ``theta_version`` its job was dispatched with.  This oracle counts
the same quantity without reading either: it numbers every
``ParameterVectorState.apply`` call, notes that number at each client
dispatch, and at each gather subtracts it from the number reached so far.
The run is fault-injected with a dispatch deadline, so jobs fail, are cut at
the deadline and are handed out again, and a wrong stamp on any of those
paths shows up as one update whose two numbers differ.
"""

import pytest

from repro import EnergyObjective, EQCConfig, EQCEnsemble, FaultPlan, OutageWindow
from repro.core.client import EQCClientNode
from repro.core.master import EQCMasterNode
from repro.vqa.optimizer import ParameterVectorState

PLAN = FaultPlan(
    seed=3,
    transient_failure_rate=0.2,
    outages=(OutageWindow("Bogota", 400.0, permanent=True),),
)
#: Inside the spread of the 4-qubit VQE's job turnarounds on this fleet
#: (roughly 80-210 s), so some jobs are cut and most are not.
DEADLINE = 150.0


@pytest.fixture
def traced_run(vqe_problem, monkeypatch):
    applied = 0  # ParameterVectorState.apply calls so far
    #: (client, task id, submit time) -> applies before that dispatch; a task
    #: handed out again goes out later, so the key names one dispatch.
    at_dispatch = {}
    pairs = []  # per gathered update: (master's staleness, oracle staleness)

    apply, dispatch_task, gather = (
        ParameterVectorState.apply, EQCClientNode.dispatch_task, EQCMasterNode.gather
    )

    def counting_apply(self, *args, **kwargs):
        nonlocal applied
        applied += 1
        return apply(self, *args, **kwargs)

    def noting_dispatch(self, *args, **kwargs):
        dispatched = dispatch_task(self, *args, **kwargs)
        key = (self.name, dispatched.task.task_id, dispatched.submit_time)
        assert key not in at_dispatch
        at_dispatch[key] = applied
        return dispatched

    def comparing_gather(self, item):
        outcome = gather(self, item)
        key = (outcome.client_name, outcome.task.task_id, outcome.submit_time)
        since = applied - at_dispatch[key]
        pairs.append((self.state.version - outcome.theta_version, since))
        return outcome

    monkeypatch.setattr(ParameterVectorState, "apply", counting_apply)
    monkeypatch.setattr(EQCClientNode, "dispatch_task", noting_dispatch)
    monkeypatch.setattr(EQCMasterNode, "gather", comparing_gather)

    config = EQCConfig(
        device_names=("x2", "Belem", "Bogota"),
        seed=4,
        shots=256,
        fault_plan=PLAN,
        dispatch_deadline=DEADLINE,
    )
    ensemble = EQCEnsemble(EnergyObjective(vqe_problem.estimator), config)
    history = ensemble.train(vqe_problem.random_initial_parameters(seed=4), num_epochs=3)
    return history, pairs


def test_the_run_cuts_fails_and_redispatches(traced_run):
    history, _ = traced_run
    stats = history.metadata["fault_stats"]
    assert stats["stragglers_cut"] > 0
    assert stats["dispatch_failures"] > 0
    assert stats["retired_devices"] == 1


def test_each_update_lags_by_the_updates_applied_since_its_dispatch(traced_run):
    history, pairs = traced_run
    assert len(pairs) == history.total_updates
    assert [master for master, _ in pairs] == [oracle for _, oracle in pairs]
    assert max(oracle for _, oracle in pairs) > 1


def test_the_staleness_summary_is_a_recomputation(traced_run):
    history, pairs = traced_run
    lags = [oracle for _, oracle in pairs]
    assert history.metadata["mean_staleness"] == sum(lags) / len(lags)
    assert history.metadata["max_staleness"] == max(lags)
