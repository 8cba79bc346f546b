"""Experiment drivers: one module per paper table/figure plus ablations."""

from .ablations import run_ensemble_size_sweep, run_weight_refresh_ablation
from .fig1_overview import Fig1Row, fig1_overview, render_fig1
from .fig3_transpile import TranspilationRow, fig3_transpilation, render_fig3
from .fig4_ghz import GhzPoint, GhzValidationResult, fig4_ghz_validation, render_fig4
from .fig5_weights import WeightTraceResult, fig5_weight_trace, render_fig5
from .fig6_vqe import VQEExperimentConfig, VQEExperimentResult, render_fig6, run_fig6_vqe
from .fig9_weighted_vqe import (
    WeightedVQEConfig,
    WeightedVQEResult,
    render_fig9,
    run_fig9_weighted_vqe,
)
from .fig11_qaoa import (
    QAOAExperimentConfig,
    QAOAExperimentResult,
    render_fig11,
    run_fig11_qaoa,
)
from .fig12_weighted_qaoa import (
    WeightedQAOAConfig,
    WeightedQAOAResult,
    render_fig12,
    run_fig12_weighted_qaoa,
)
from .speedup import render_speedup, speedup_from_result
from .table1 import render_table1, table1_rows

__all__ = [
    "table1_rows",
    "render_table1",
    "Fig1Row",
    "fig1_overview",
    "render_fig1",
    "TranspilationRow",
    "fig3_transpilation",
    "render_fig3",
    "GhzPoint",
    "GhzValidationResult",
    "fig4_ghz_validation",
    "render_fig4",
    "WeightTraceResult",
    "fig5_weight_trace",
    "render_fig5",
    "VQEExperimentConfig",
    "VQEExperimentResult",
    "run_fig6_vqe",
    "render_fig6",
    "WeightedVQEConfig",
    "WeightedVQEResult",
    "run_fig9_weighted_vqe",
    "render_fig9",
    "QAOAExperimentConfig",
    "QAOAExperimentResult",
    "run_fig11_qaoa",
    "render_fig11",
    "WeightedQAOAConfig",
    "WeightedQAOAResult",
    "run_fig12_weighted_qaoa",
    "render_fig12",
    "speedup_from_result",
    "render_speedup",
    "run_weight_refresh_ablation",
    "run_ensemble_size_sweep",
]
