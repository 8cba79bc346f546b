"""Tests for the experiment drivers (reduced-scale configurations).

The benchmark harness runs the paper-scale versions; these tests exercise the
same code paths with tiny epoch counts so the whole suite stays fast.
"""

import pytest

from repro.core.weighting import BOUNDS_MODERATE
from repro.experiments import (
    fig1_overview,
    fig3_transpilation,
    fig4_ghz_validation,
    fig5_weight_trace,
    render_fig1,
    render_fig3,
    render_fig4,
    render_fig5,
    render_fig6,
    render_fig9,
    render_fig11,
    render_fig12,
    render_speedup,
    render_table1,
    run_fig6_vqe,
    run_fig9_weighted_vqe,
    run_fig11_qaoa,
    run_fig12_weighted_qaoa,
    speedup_from_result,
    table1_rows,
)
from repro.experiments.fig6_vqe import VQEExperimentConfig
from repro.experiments.fig9_weighted_vqe import WeightedVQEConfig
from repro.experiments.fig11_qaoa import QAOAExperimentConfig
from repro.experiments.fig12_weighted_qaoa import WeightedQAOAConfig


class TestTable1AndFig3:
    def test_table1_rows(self):
        rows = table1_rows()
        assert len(rows) == 11
        assert {row["device"] for row in rows} == {
            "Lima", "x2", "Belem", "Quito", "Manila", "Santiago", "Bogota",
            "Lagos", "Casablanca", "Toronto", "Manhattan",
        }
        assert "Manhattan" in render_table1()

    def test_fig3_rows(self):
        rows = fig3_transpilation()
        assert {row.device for row in rows} == {"Belem", "x2", "Manila"}
        x2 = [r for r in rows if r.device == "x2" and r.circuit == "fig3_demo"][0]
        belem = [r for r in rows if r.device == "Belem" and r.circuit == "fig3_demo"][0]
        assert x2.num_swaps <= belem.num_swaps
        assert "x2" in render_fig3(rows)


class TestFig4AndFig5:
    def test_ghz_validation_points_and_correlation(self):
        result = fig4_ghz_validation(
            device_names=("x2", "Belem", "Bogota", "Quito"),
            ages_hours=(0.02, 12.0),
            shots=2048,
            repeats=1,
            seed=1,
        )
        assert len(result.points) == 8
        for point in result.points:
            assert 0.0 <= point.calculated_error <= 1.0
            assert 0.0 <= point.observed_error <= 1.0
        assert result.correlation.pearson_r > 0.3
        assert "r=" in render_fig4(result)
        # Sampled bits pinned: the driver's device call may change spelling,
        # never the counts it draws from the shared seed-1 stream.
        assert [p.observed_error.hex() for p in result.points] == [
            "0x1.2880000000000p-1", "0x1.6a40000000000p-1",
            "0x1.6b80000000000p-2", "0x1.aa00000000000p-2",
            "0x1.c600000000000p-3", "0x1.0000000000000p-2",
            "0x1.5780000000000p-2", "0x1.8b00000000000p-2",
        ]

    def test_weight_trace(self):
        result = fig5_weight_trace(
            device_names=("x2", "Belem", "Bogota"),
            duration_hours=6.0,
            step_hours=2.0,
        )
        assert len(result.times_hours) == 4
        for device in ("x2", "Belem", "Bogota"):
            assert len(result.weights[device]) == 4
            low, high = result.weight_range(device)
            assert 0.5 - 1e-9 <= low <= high <= 1.5 + 1e-9
        # x2 should carry the lowest average weight of the three
        assert result.mean_weight("x2") <= min(
            result.mean_weight("Belem"), result.mean_weight("Bogota")
        )
        assert "x2" in render_fig5(result)


@pytest.fixture(scope="module")
def tiny_fig6():
    return run_fig6_vqe(
        VQEExperimentConfig(
            epochs=3,
            shots=256,
            single_devices=("x2", "Bogota"),
            ensemble_devices=("x2", "Belem", "Bogota"),
            eqc_runs=1,
            seed=5,
        )
    )


class TestFig6AndDerived:
    def test_structure(self, tiny_fig6):
        assert set(tiny_fig6.singles.keys()) == {"x2", "Bogota"}
        assert len(tiny_fig6.eqc_runs) == 1
        assert len(tiny_fig6.ideal) == 3

    def test_tables(self, tiny_fig6):
        error_rows = tiny_fig6.error_rows()
        speed_rows = tiny_fig6.speed_rows()
        assert len(error_rows) == len(speed_rows) == 4  # ideal + 2 singles + 1 EQC
        assert all("error_pct" in row for row in error_rows)
        assert "Training speed" in render_fig6(tiny_fig6)

    def test_eqc_mean_curve(self, tiny_fig6):
        epochs, mean, std = tiny_fig6.eqc_mean_curve()
        assert len(epochs) == len(mean) == len(std) == 3

    def test_fig1_rows(self, tiny_fig6):
        rows = fig1_overview(result=tiny_fig6, devices=("x2", "Bogota"))
        assert [row.system for row in rows] == ["x2", "Bogota", "EQC"]
        assert "EQC" in render_fig1(rows)

    def test_speedup_summary(self, tiny_fig6):
        summary = speedup_from_result(tiny_fig6)
        assert summary.max_speedup >= summary.min_speedup > 0
        assert "EQC" in render_speedup(summary)


class TestFig9:
    def test_sweep(self):
        result = run_fig9_weighted_vqe(
            WeightedVQEConfig(
                epochs=2,
                shots=256,
                ensemble_devices=("x2", "Belem", "Bogota"),
                sweep=(("no weighting", None), ("weights 0.50-1.50", BOUNDS_MODERATE)),
                seed=3,
                run_ideal_reference=False,
            )
        )
        assert set(result.runs.keys()) == {"no weighting", "weights 0.50-1.50"}
        rows = result.rows()
        assert len(rows) == 2
        assert result.reference_energy == pytest.approx(result.problem.ground_energy)
        assert "weights" in render_fig9(result)


class TestFig11AndFig12:
    @pytest.fixture(scope="class")
    def tiny_fig11(self):
        return run_fig11_qaoa(
            QAOAExperimentConfig(
                iterations=3,
                shots=256,
                devices=("Belem", "Quito", "Bogota"),
                eqc_runs=1,
                seed=4,
                run_ideal_reference=False,
            )
        )

    def test_fig11_structure(self, tiny_fig11):
        assert set(tiny_fig11.singles.keys()) == {"Belem", "Quito", "Bogota"}
        rows = tiny_fig11.rows()
        assert len(rows) == 4
        for row in rows:
            assert -1.0 <= row["final_cost"] <= 0.0
        assert "Optimal cut" in render_fig11(tiny_fig11)

    def test_fig12_reuses_baseline(self, tiny_fig11):
        result = run_fig12_weighted_qaoa(
            WeightedQAOAConfig(
                iterations=3,
                shots=256,
                devices=("Belem", "Quito", "Bogota"),
                sweep=(("no weighting", None), ("weights 0.50-1.50", BOUNDS_MODERATE)),
                seed=4,
            ),
            baseline=tiny_fig11,
        )
        assert len(result.sweep_rows()) == 2
        ranking = result.ranking_rows()
        assert len(ranking) == 2 + 3 + 1
        assert ranking[0]["rank"] == 1
        # ranking is sorted by best cost ascending (more negative = better)
        costs = [row["best_cost"] for row in ranking]
        assert costs == sorted(costs)
        assert "ranking" in render_fig12(result).lower()
