"""Benchmark harness shared by benchmarks/ (one module per figure)."""

from .report import (
    fault_counts_line,
    fig_header,
    per_method_lines,
    per_method_table,
    phase_latency_table,
    ratio_line,
    series_table,
    serving_table,
    tenant_table,
)
from .runner import (
    ExperimentConfig,
    Run,
    average_results,
    run_averaged,
    run_experiment,
    run_harness,
)

__all__ = [
    "ExperimentConfig",
    "Run",
    "average_results",
    "fault_counts_line",
    "fig_header",
    "per_method_lines",
    "per_method_table",
    "phase_latency_table",
    "ratio_line",
    "run_averaged",
    "run_experiment",
    "run_harness",
    "series_table",
    "serving_table",
    "tenant_table",
]
