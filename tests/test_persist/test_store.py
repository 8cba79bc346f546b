"""Tests for the run store: layout, manifests, and config serialization."""

import json

import pytest

from repro import EQCConfig, FaultPlan, OutageWindow, RetryPolicy, WeightBounds
from repro.cloud.queueing import QueueModel
from repro.persist.store import (
    DURABILITY_FIELDS,
    RunStore,
    config_diff,
    config_from_dict,
    config_hash,
    config_to_dict,
    list_runs,
    load_run,
)

THETA = [0.1, -0.2, 0.3, 0.4]


def make_config(**overrides):
    kwargs = dict(device_names=("x2", "Belem"), shots=64, seed=3)
    kwargs.update(overrides)
    return EQCConfig(**kwargs)


FULL_CONFIG = make_config(
    device_names=("x2", "Belem", "Bogota"),
    learning_rate=0.05,
    weight_bounds=WeightBounds(low=0.4, high=1.6),
    refresh_weights=True,
    label="full",
    queue_models={"x2": QueueModel(mean_wait_seconds=180.0, popularity=0.8)},
    fault_plan=FaultPlan(
        transient_failure_rate=0.1,
        result_timeout_rate=0.02,
        result_delay_seconds=60.0,
        outages=(
            OutageWindow(device="Belem", start=1.0, duration=2.0),
            OutageWindow(device="x2", start=5.0, duration=float("inf"), permanent=True),
        ),
        seed=9,
    ),
    retry_policy=RetryPolicy(max_attempts=5),
    dispatch_deadline=7200.0,
    min_live_devices=1,
)


class TestConfigSerialization:
    def test_round_trip(self):
        rebuilt = config_from_dict(config_to_dict(FULL_CONFIG))
        assert config_to_dict(rebuilt) == config_to_dict(FULL_CONFIG)

    def test_round_trip_survives_json(self):
        # The manifest stores the dict as JSON; infinite outage durations
        # must survive that encoding too.
        data = json.loads(json.dumps(config_to_dict(FULL_CONFIG)))
        rebuilt = config_from_dict(data)
        assert config_to_dict(rebuilt) == config_to_dict(FULL_CONFIG)

    def test_minimal_config_round_trip(self):
        config = make_config()
        assert config_from_dict(config_to_dict(config)) == config

    def test_tenant_config_round_trip(self):
        # Tenant traffic uses the shared-kernel scheduler (not checkpointable,
        # but still serializable for the run catalogue).
        config = make_config(background_tenants=2, tenant_jobs_per_hour=4.0)
        assert config_from_dict(config_to_dict(config)) == config

    @pytest.mark.parametrize("config", [make_config(), FULL_CONFIG], ids=["minimal", "full"])
    def test_rebuild_reads_only_the_keys_it_knows(self, config):
        # A manifest may carry keys this version no longer has (stores written
        # when the config had a multiprocess mode do); the rebuild skips them.
        data = config_to_dict(config)
        data["obsolete_setting"] = 3
        if data["fault_plan"] is not None:
            data["fault_plan"]["obsolete_family"] = []
        assert config_from_dict(data) == config

    def test_scheduler_config_rejected(self):
        from repro.sched import FifoPolicy

        config = make_config(scheduling_policy=FifoPolicy())
        with pytest.raises(ValueError, match="scheduling_policy"):
            config_to_dict(config)


class TestConfigHash:
    def test_durability_fields_do_not_affect_hash(self, tmp_path):
        plain = config_to_dict(make_config())
        durable = config_to_dict(
            make_config(checkpoint_every=2, run_store=str(tmp_path))
        )
        assert config_hash(plain) == config_hash(durable)

    def test_trajectory_fields_change_hash(self):
        assert config_hash(config_to_dict(make_config())) != config_hash(
            config_to_dict(make_config(seed=4))
        )

    def test_diff_names_fields(self):
        a = config_to_dict(make_config())
        b = config_to_dict(make_config(seed=4, shots=128))
        assert config_diff(a, b) == ["seed", "shots"]

    def test_diff_ignores_durability_fields(self, tmp_path):
        a = config_to_dict(make_config())
        b = config_to_dict(make_config(checkpoint_every=1, run_store=str(tmp_path)))
        assert config_diff(a, b) == []
        assert sorted(DURABILITY_FIELDS) == [
            "checkpoint_every",
            "checkpoint_retention",
            "run_store",
        ]


class TestRunStore:
    def test_create_run_layout(self, tmp_path):
        store = RunStore(tmp_path)
        run = store.create_run(make_config(), THETA, num_epochs=5)
        assert run.run_id == "run-000001"
        assert run.manifest_path.exists()
        assert run.checkpoints_dir.is_dir()
        manifest = run.manifest()
        assert manifest["status"] == "running"
        assert manifest["initial_parameters"] == THETA
        assert manifest["num_epochs"] == 5
        assert manifest["config_hash"] == config_hash(manifest["config"])

    def test_sequential_run_ids(self, tmp_path):
        store = RunStore(tmp_path)
        first = store.create_run(make_config(), THETA, num_epochs=1)
        second = store.create_run(make_config(), THETA, num_epochs=1)
        assert [first.run_id, second.run_id] == ["run-000001", "run-000002"]

    def test_duplicate_run_id_rejected(self, tmp_path):
        store = RunStore(tmp_path)
        store.create_run(make_config(), THETA, num_epochs=1, run_id="run-000007")
        with pytest.raises(FileExistsError):
            store.create_run(make_config(), THETA, num_epochs=1, run_id="run-000007")

    def test_list_runs_and_load_run(self, tmp_path):
        store = RunStore(tmp_path)
        run = store.create_run(make_config(), THETA, num_epochs=3)
        listed = list_runs(tmp_path)
        assert [r["run_id"] for r in listed] == [run.run_id]
        assert listed[0]["status"] == "running"
        assert listed[0]["seed"] == 3
        assert load_run(tmp_path, run.run_id).path == run.path

    def test_load_missing_run_raises(self, tmp_path):
        with pytest.raises(KeyError, match="run-000099"):
            RunStore(tmp_path).load_run("run-000099")

    def test_mark_complete(self, tmp_path):
        run = RunStore(tmp_path).create_run(make_config(), THETA, num_epochs=1)
        run.mark_complete({"final_loss": 1.25})
        assert run.status() == "complete"
        assert run.manifest()["summary"] == {"final_loss": 1.25}

    def test_history_missing_raises(self, tmp_path):
        run = RunStore(tmp_path).create_run(make_config(), THETA, num_epochs=1)
        with pytest.raises(FileNotFoundError, match="no final history"):
            run.history()


class TestConfigValidation:
    """Reject-early validation of the durability knobs (satellite c)."""

    def test_checkpoint_every_without_run_store(self):
        with pytest.raises(ValueError, match="must be set together"):
            make_config(checkpoint_every=1)

    def test_run_store_without_checkpoint_every(self, tmp_path):
        with pytest.raises(ValueError, match="must be set together"):
            make_config(run_store=str(tmp_path))

    def test_checkpoint_every_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="checkpoint_every"):
            make_config(checkpoint_every=0, run_store=str(tmp_path))

    def test_checkpoint_retention_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="checkpoint_retention"):
            make_config(
                checkpoint_every=1, run_store=str(tmp_path), checkpoint_retention=0
            )

    def test_checkpointing_rejects_scheduler(self, tmp_path):
        from repro.sched import FifoPolicy

        with pytest.raises(ValueError, match="scheduler"):
            make_config(
                checkpoint_every=1,
                run_store=str(tmp_path),
                scheduling_policy=FifoPolicy(),
            )

    def test_checkpointing_enabled_property(self, tmp_path):
        assert not make_config().checkpointing_enabled
        assert make_config(
            checkpoint_every=2, run_store=str(tmp_path)
        ).checkpointing_enabled
