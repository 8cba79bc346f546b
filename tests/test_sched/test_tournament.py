"""Tests for the policy tournament harness: fleet cloning, cells, telemetry."""

from dataclasses import replace

import pytest

from repro.sched.tournament import (
    FLEET_TEMPLATES,
    FULL_CONFIG,
    SMOKE_CONFIG,
    TournamentConfig,
    clone_fleet,
    publish_tournament,
    run_cell,
    run_tournament,
)
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.report import render_text, tournament_table
from repro.vqa import heisenberg_vqe_problem, vqe_task_cycle

#: A deliberately tiny grid so the whole suite stays fast.
TINY = TournamentConfig(
    device_counts=(6,),
    tenant_levels=(0, 200),
    policies=("fifo", "backpressure"),
    num_epochs=2,
    clients=3,
)

_WALL_FIELDS = ("wall_seconds", "events_per_sec_wall")


@pytest.fixture(scope="module")
def tiny_result():
    return run_tournament(TINY)


def _cell(result, policy, tenants):
    (cell,) = [
        c for c in result["cells"] if c["policy"] == policy and c["tenants"] == tenants
    ]
    return cell


class TestCloneFleet:
    def test_count_and_unique_names(self):
        fleet = clone_fleet(25)
        names = [qpu.name for qpu, _ in fleet]
        assert len(fleet) == 25
        assert len(set(names)) == 25

    def test_clones_cycle_templates_with_distinct_seeds(self):
        fleet = clone_fleet(2 * len(FLEET_TEMPLATES))
        seeds = [qpu.spec.seed for qpu, _ in fleet]
        assert len(set(seeds)) == len(seeds)
        first, second = fleet[0][0], fleet[len(FLEET_TEMPLATES)][0]
        assert first.spec.base_job_seconds == second.spec.base_job_seconds

    def test_rejects_empty_fleet(self):
        with pytest.raises(ValueError):
            clone_fleet(0)


class TestTournamentConfig:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"device_counts": ()},
            {"tenant_levels": ()},
            {"policies": ()},
            {"device_counts": (0,)},
            {"tenant_levels": (-5,)},
            {"policies": ("fifo", "lottery")},
            {"num_epochs": 0},
            {"clients": 0},
            {"clients": -1},
            {"device_counts": (6,), "clients": 7},
        ],
        ids=lambda overrides: ",".join(f"{k}={v}" for k, v in overrides.items()),
    )
    def test_rejects_inputs_that_would_give_silent_wrong_answers(self, overrides):
        field = list(overrides)[-1]  # the last override is the one at fault
        with pytest.raises(ValueError, match=f"^{field} "):
            TournamentConfig(**overrides)


class TestRunCell:
    def test_cell_reports_all_tracked_fields(self, tiny_result):
        cell = _cell(tiny_result, "fifo", 200)
        for field in (
            "policy",
            "devices",
            "tenants",
            "epochs_per_hour",
            "updates",
            "mean_staleness",
            "foreground_wait_mean",
            "events_processed",
            "slo_queue_wait_p50",
            "slo_queue_wait_p99",
            "slo_rejected_fraction",
            "slo_tenant_fairness_jain",
        ):
            assert field in cell, field
        assert cell["epochs_per_hour"] > 0
        assert 0.0 <= cell["slo_rejected_fraction"] <= 1.0

    def test_cells_are_deterministic(self, tiny_result, forget_arrival_recordings):
        def strip(cell):
            return {k: v for k, v in cell.items() if k not in _WALL_FIELDS}

        forget_arrival_recordings()  # the rerun draws its tenant traffic afresh
        assert strip(run_cell("backpressure", 6, 200, TINY)) == strip(
            _cell(tiny_result, "backpressure", 200)
        )

    def test_cell_trains_the_asynchronous_master(self, tiny_result):
        cell = _cell(tiny_result, "fifo", 0)
        cycle = vqe_task_cycle(heisenberg_vqe_problem().num_parameters).cycle_length
        assert cell["slo_rejected_fraction"] == 0.0
        assert cell["updates"] == TINY.num_epochs * cycle
        # A barrier would apply every gradient to the parameters it was
        # computed from; the master hands out tasks while others are in flight.
        assert cell["mean_staleness"] > 0


class TestPolicyClaim:
    def test_which_policies_sustain_training_at_1000_tenants(self):
        """At 1000 tenants on 25 devices, only deadline keeps >= 1 epoch/hour.

        The predicate (>= 1.0 epochs/hour with rejected fraction < 0.5) is
        the tournament's acceptance claim; the pin records which policies
        meet it on the real master at the smoke grid's 2 epochs.
        """
        config = replace(
            SMOKE_CONFIG, tenant_levels=(1000,), policies=FULL_CONFIG.policies
        )
        result = run_tournament(config)
        holds = {
            cell["policy"]: cell["epochs_per_hour"] >= 1.0
            and cell["slo_rejected_fraction"] < 0.5
            for cell in result["cells"]
        }
        assert holds == {
            "fifo": False,
            "fair_share": False,
            "backpressure": False,
            "deadline": True,
        }
        assert any(holds.values())


class TestRunTournament:
    def test_grid_shape_and_config_echo(self, tiny_result):
        assert len(tiny_result["cells"]) == 4
        assert tiny_result["config"]["policies"] == ["fifo", "backpressure"]
        coords = {
            (c["devices"], c["tenants"], c["policy"]) for c in tiny_result["cells"]
        }
        assert len(coords) == 4

    def test_smoke_grid_is_two_by_two(self):
        cells = (
            len(SMOKE_CONFIG.device_counts)
            * len(SMOKE_CONFIG.tenant_levels)
            * len(SMOKE_CONFIG.policies)
        )
        assert cells == 4


class TestTelemetryPublication:
    def test_gauges_round_trip_into_the_report_table(self, tiny_result):
        registry = MetricsRegistry()
        publish_tournament(tiny_result, registry)
        rows = tournament_table(dict(registry.gauges()))
        assert len(rows) == len(tiny_result["cells"])
        by_coord = {
            (c["devices"], c["tenants"], c["policy"]): c for c in tiny_result["cells"]
        }
        for row in rows:
            cell = by_coord[(row["devices"], row["tenants"], row["policy"])]
            assert row["epochs_per_hour"] == pytest.approx(cell["epochs_per_hour"])
            assert row["rejected_fraction"] == pytest.approx(
                cell["slo_rejected_fraction"]
            )

    def test_render_text_includes_tournament_section(self, tiny_result):
        registry = MetricsRegistry()
        publish_tournament(tiny_result, registry)
        report = {
            "counters": {},
            "gauges": dict(registry.gauges()),
            "histograms": {},
            "spans_by_category": {},
        }
        text = render_text(report)
        assert "tournament" in text
        assert "backpressure" in text
