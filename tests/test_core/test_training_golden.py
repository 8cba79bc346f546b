"""Training goldens: four reduced e2e training workloads pinned bit for bit.

The benchmark of record compares ``sim_digest`` parent vs change on the five
e2e workloads; these are the four training ones at tier-1 size, so a change
to how a device job executes (when its clock is read, when its physics runs,
which RNG stream draws what, in which order) that moves any epoch's loss,
simulated time, parameter, weight, job count, endpoint RNG position,
``free_at`` watermark or utilization figure fails a pytest, not only a
benchmark digest:

* ``vqe4_stat`` — 4-device Heisenberg VQE on the statistical clock;
* ``qaoa10_dispatch`` — 10-device ring-MaxCut QAOA, two-circuit jobs;
* ``vqe4_contended`` — VQE through the event kernel (deadline policy, 200
  background tenants) with one injected outage that cuts a training job in
  service on Bogota, so that job's service is entered twice;
* ``qaoa10_chaos_durable`` — QAOA under a fault plan (15 % transient
  failures, Bogota dead from the start) with a run store and a checkpoint
  every epoch.

The hex values were captured on the commit *before* device jobs were split
into a clock half and a deferred physics half (PR 19's parent) and must never
be re-captured to make a performance change pass.
"""

import hashlib
import json

import pytest

from repro import (
    DEFAULT_VQE_FLEET,
    EnergyObjective,
    EQCConfig,
    EQCEnsemble,
    FaultPlan,
    OutageWindow,
)

VQE4_FLEET = ("x2", "Belem", "Bogota", "Casablanca")
SEED = 5
SHOTS = 1024

#: workload -> sha256 of the run (see :func:`training_digest`), from the parent commit.
GOLDEN = {
    "vqe4_stat": "ae60100f4b9f498b0fd9c0487b32b76fbffac868326c2c45d46c9cefe6ccf411",
    "qaoa10_dispatch": "b6762186e87f4c5872a54980762022140142912cc32a5a1987678b1f97e76a3c",
    "vqe4_contended": "ec4070e717bd2cc7355e81d6c935f653a1bcc4e468cc2f301d045d925e5f40bc",
    "qaoa10_chaos_durable": "a93134efce67d1e8d73438c78be3795f0093fd2fe0694a66e63c1d8184e93536",
}


def training_digest(ensemble, history) -> str:
    """sha256 over the history and the provider state the run left behind."""
    hasher = hashlib.sha256()
    for record in history.records:
        floats = [record.loss, record.sim_time_hours, *record.parameters]
        floats += [record.weights[name] for name in sorted(record.weights)]
        hasher.update(",".join(float(v).hex() for v in floats).encode())
    hasher.update(f"jobs={history.total_jobs}".encode())
    # Endpoint RNG states, free_at, utilization records, fault counters.
    hasher.update(json.dumps(ensemble.provider.snapshot_state(), sort_keys=True).encode())
    return hasher.hexdigest()


def run_workload(name, vqe_problem, qaoa_problem, tmp_path):
    if name == "vqe4_stat":
        problem, epochs = vqe_problem, 2
        config = EQCConfig(device_names=VQE4_FLEET, seed=SEED, shots=SHOTS)
    elif name == "qaoa10_dispatch":
        problem, epochs = qaoa_problem, 12
        config = EQCConfig(device_names=DEFAULT_VQE_FLEET, seed=SEED, shots=SHOTS)
    elif name == "vqe4_contended":
        problem, epochs = vqe_problem, 2
        config = EQCConfig(
            device_names=VQE4_FLEET,
            seed=SEED,
            shots=SHOTS,
            scheduling_policy="deadline",
            background_tenants=200,
        )
    else:
        problem, epochs = qaoa_problem, 8
        plan = FaultPlan(
            seed=SEED,
            transient_failure_rate=0.15,
            outages=(OutageWindow("Bogota", 0.0, permanent=True),),
        )
        config = EQCConfig(
            device_names=DEFAULT_VQE_FLEET,
            seed=SEED,
            shots=SHOTS,
            fault_plan=plan,
            run_store=str(tmp_path / "store"),
            checkpoint_every=1,
        )
    ensemble = EQCEnsemble(EnergyObjective(problem.estimator), config)
    if name == "vqe4_contended":
        # Opens while training job 6 is in service on Bogota (it started at
        # t=493 s and holds the device for 109 s): the job is preempted and
        # its service re-entered at t=840 s.
        ensemble.scheduler.inject_outage("Bogota", start=540.0, duration=300.0)
    theta0 = problem.random_initial_parameters(seed=SEED)
    return ensemble, ensemble.train(theta0, num_epochs=epochs)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_training_run_matches_parent_commit(name, vqe_problem, qaoa_problem, tmp_path):
    ensemble, history = run_workload(name, vqe_problem, qaoa_problem, tmp_path)
    assert training_digest(ensemble, history) == GOLDEN[name]


def test_the_contended_outage_really_cuts_a_training_job(
    vqe_problem, qaoa_problem, tmp_path, monkeypatch
):
    from repro.backends.noisy import NoisyBackend

    starts = []
    run = NoisyBackend.run

    def counting_run(self, *args, **kwargs):
        starts.append(self.name)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(NoisyBackend, "run", counting_run)
    _, history = run_workload("vqe4_contended", vqe_problem, qaoa_problem, tmp_path)
    assert history.metadata["scheduler"]["devices"]["Bogota"]["outage_windows"] == 1
    # One service start per job, plus the re-entry of the job the outage cut.
    assert len(starts) == history.total_jobs + 1


#: sha256 of what the chaos run leaves on disk (retention keeps the last three
#: checkpoint containers).  Re-captured for checkpoint schema 2 (parked jobs
#: stored parked, epoch records in the journal) and for schema 3 (flat rows,
#: packed float64 columns); CHANGES.md has the old -> new tables.  The run
#: digests above and the journal did not move.
GOLDEN_RUN_FILES = {
    "ckpt-000006.eqc": "e9633c272f6fd3dbc76d3089f6444ef4a22296dfdcf56610da29bac15a81d8d9",
    "ckpt-000007.eqc": "8f7d0e557161a6baa7b9892ae691a700801cfb29f2f5d592a93ca256f795b310",
    "ckpt-000008.eqc": "c6bbeb8c7556f0ab0cddd21d4ba2aa949fb09072c13f08f84601e364c8e3120f",
    "journal.jsonl": "12ae5a23f1ae1ed78a2a871a6862d1785d45c994d0ba711b49c0e0092674cb9c",
}


def test_the_chaos_run_retires_bogota_and_checkpoints(vqe_problem, qaoa_problem, tmp_path):
    _, history = run_workload("qaoa10_chaos_durable", vqe_problem, qaoa_problem, tmp_path)
    assert "Bogota" not in history.metadata["live_devices"]
    assert history.metadata["provider_faults"]["retries"] > 0
    assert history.metadata["persist"]["checkpoints_written"] == 8
    # Container and journal bytes: in-flight outcomes and parked jobs, endpoint
    # streams and clocks, epoch frames.
    written = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.rglob("*")
        if path.name in GOLDEN_RUN_FILES
    }
    assert written == GOLDEN_RUN_FILES
