"""Tests for the EQC client node (Algorithm 2)."""

import dataclasses

import pytest

from repro.backends.cache import shared_transpile_cache
from repro.cloud.provider import CloudProvider
from repro.core.client import EQCClientNode
from repro.core.objective import EnergyObjective
from repro.devices.catalog import build_qpu
from repro.vqa.tasks import GradientTask


@pytest.fixture()
def client(vqe_problem):
    qpu = build_qpu("Belem")
    provider = CloudProvider([qpu], seed=0, shots=512)
    return EQCClientNode(
        EnergyObjective(vqe_problem.estimator), qpu, provider, shots=512
    )


class TestClientExecution:
    def test_outcome_fields(self, client, vqe_problem):
        task = GradientTask(task_id=0, parameter_index=4)
        theta = vqe_problem.random_initial_parameters()
        outcome = client.execute_task(task, theta, submit_time=0.0, theta_version=3)
        assert outcome.device_name == "Belem"
        assert outcome.task is task
        assert outcome.finish_time > outcome.submit_time
        assert 0.0 < outcome.p_correct <= 1.0
        assert 0.0 <= outcome.success_probability_truth <= 1.0
        assert outcome.theta_version == 3
        assert outcome.num_circuits == 6
        assert outcome.turnaround_seconds > 0

    def test_gradient_is_finite(self, client, vqe_problem):
        task = GradientTask(task_id=1, parameter_index=0)
        outcome = client.execute_task(
            task, vqe_problem.random_initial_parameters(), submit_time=0.0
        )
        assert abs(outcome.gradient) < 50.0

    def test_transpilation_is_cached_across_tasks(self, client, vqe_problem):
        cache = shared_transpile_cache()
        theta = vqe_problem.random_initial_parameters()
        client.execute_task(GradientTask(0, 0), theta, submit_time=0.0)
        counters = (cache.hits, cache.misses)
        # The second task reads the client's footprint memo: no lookup at all.
        client.execute_task(GradientTask(1, 1), theta, submit_time=100.0)
        assert (cache.hits, cache.misses) == counters
        # The first task left one entry per group template for this topology.
        templates = client.objective.build_job(GradientTask(0, 0), theta).templates
        assert len(templates) == 3
        for template in templates:
            cache.get_or_transpile(template, client.qpu.topology)
        assert cache.misses == counters[1]

    def test_jobs_completed_counter(self, client, vqe_problem):
        theta = vqe_problem.random_initial_parameters()
        for index in range(3):
            client.execute_task(GradientTask(index, index), theta, submit_time=0.0)
        assert client.jobs_completed == 3

    def test_job_footprint_is_averaged_once_per_task(self, client, vqe_problem, monkeypatch):
        theta = vqe_problem.random_initial_parameters()
        job = client.objective.build_job(GradientTask(0, 0), theta)
        client.execute_task(GradientTask(0, 0), theta, submit_time=0.0)
        footprint = client.representative_footprint(job)
        assert client.current_p_correct(job, 50.0, footprint) == client.current_p_correct(job, 50.0)

        calls = []
        original = client.representative_footprint
        monkeypatch.setattr(
            client,
            "representative_footprint",
            lambda job: calls.append(job) or original(job),
        )
        client.execute_task(GradientTask(1, 1), theta, submit_time=100.0)
        assert len(calls) == 1

    def test_p_correct_is_recomputed_only_for_a_new_snapshot_or_footprint(
        self, client, vqe_problem, monkeypatch
    ):
        import repro.core.client as client_module

        theta = vqe_problem.random_initial_parameters()
        job = client.objective.build_job(GradientTask(0, 0), theta)
        footprint = client.representative_footprint(job)
        estimates, lookups = [], []
        estimate = client_module.estimate_p_correct
        monkeypatch.setattr(
            client_module,
            "estimate_p_correct",
            lambda calibration, fp: estimates.append(fp) or estimate(calibration, fp),
        )
        lookup = client.qpu.estimated_calibration
        monkeypatch.setattr(
            client.qpu, "estimated_calibration", lambda now: lookups.append(now) or lookup(now)
        )
        refresh = client.qpu.spec.properties_refresh_hours * 3600.0
        within = [client.current_p_correct(job, t, footprint) for t in (10.0, 20.0, refresh - 1)]
        # One Eq. 2 evaluation for the whole refresh step, one lookup per call,
        assert len(estimates) == 1 and len(lookups) == 3
        assert within == [estimate(lookup(10.0), footprint)] * 3
        # a new step re-evaluates,
        after = client.current_p_correct(job, refresh + 1, footprint)
        assert len(estimates) == 2
        assert after == estimate(lookup(refresh + 1), footprint)
        # and so does a different footprint object, even an equal one.
        client.current_p_correct(job, refresh + 2, dataclasses.replace(footprint))
        assert len(estimates) == 3

    def test_job_footprint_is_memoized_per_template_keys(self, client, vqe_problem, monkeypatch):
        import repro.core.client as client_module

        theta = vqe_problem.random_initial_parameters()
        averaged = []
        average = client_module._average_footprints
        monkeypatch.setattr(
            client_module,
            "_average_footprints",
            lambda footprints: averaged.append(len(footprints)) or average(footprints),
        )
        jobs = [client.objective.build_job(GradientTask(i, i), theta) for i in range(3)]
        footprints = [client.representative_footprint(job) for job in jobs]
        # Three jobs over the same three templates: averaged once, shared after.
        assert averaged == [3]
        assert footprints[0] is footprints[1] is footprints[2]
        cache = shared_transpile_cache()
        assert footprints[0] == average(
            [
                cache.get_or_transpile(template, client.qpu.topology).footprint
                for template in jobs[0].templates
            ]
        )

    def test_dispatch_and_collect_are_the_two_halves_of_execute(self, vqe_problem):
        theta = vqe_problem.random_initial_parameters()

        def fresh():
            qpu = build_qpu("Belem")
            provider = CloudProvider([qpu], seed=0, shots=512)
            node = EQCClientNode(EnergyObjective(vqe_problem.estimator), qpu, provider, shots=512)
            return node, provider

        whole, _ = fresh()
        halves, provider = fresh()
        outcome = whole.execute_task(GradientTask(0, 4), theta, submit_time=0.0, theta_version=2)
        dispatched = halves.dispatch_task(GradientTask(0, 4), theta, submit_time=0.0, theta_version=2)
        # Timing is final at dispatch; the counts are not there yet.
        assert dispatched.cloud_job.finish_time == outcome.finish_time
        assert halves.jobs_completed == 1
        assert all(r.counts is None for r in dispatched.cloud_job.parked_results)
        assert len(provider._parked) == 1
        assert dispatched.collect() == outcome
        assert not provider._parked

    def test_p_correct_tracks_device_quality(self, vqe_problem):
        """The estimate on x2 must be lower than on Bogota for the same job."""
        outcomes = {}
        for name in ("x2", "Bogota"):
            qpu = build_qpu(name)
            provider = CloudProvider([qpu], seed=0, shots=256)
            client = EQCClientNode(
                EnergyObjective(vqe_problem.estimator), qpu, provider, shots=256
            )
            outcome = client.execute_task(
                GradientTask(0, 0), vqe_problem.random_initial_parameters(), submit_time=0.0
            )
            outcomes[name] = outcome.p_correct
        assert outcomes["x2"] < outcomes["Bogota"]

    def test_later_submissions_finish_later(self, client, vqe_problem):
        theta = vqe_problem.random_initial_parameters()
        first = client.execute_task(GradientTask(0, 0), theta, submit_time=0.0)
        second = client.execute_task(GradientTask(1, 1), theta, submit_time=first.finish_time)
        assert second.finish_time > first.finish_time
