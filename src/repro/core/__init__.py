"""Experiment orchestration: triples, campaign, cross-validation, reports."""

from .batch import (
    BundleCache,
    TraceBundle,
    bundle_cache,
    clear_bundle_cache,
    get_bundle,
    group_cells,
    plan_batches,
    run_batch_report,
    workload_key,
)
from .campaign import (
    ResultCache,
    SpecCampaignResult,
    cell_token,
    run_cells,
    trace_digest,
    workload_digest,
)
from .crossval import (
    CrossValidationRow,
    average_reductions,
    leave_one_out,
    selection_consensus,
)
from .prediction_analysis import (
    DEFAULT_TECHNIQUES,
    PredictionAnalysis,
    analyze_predictions,
    table8_rows,
)
from .reporting import format_percent, format_table
from .run import (
    RunOutcome,
    build_workload,
    run_cell,
    run_components_on_trace,
    run_spec,
    run_spec_result,
)
from .triples import (
    CLAIRVOYANT_EASY,
    CLAIRVOYANT_SJBF,
    EASY_TRIPLE,
    EASYPP_TRIPLE,
    ELOSS_TRIPLE,
    PAPER_GRID,
    TRIPLE_NAMES,
    paper_cells,
)

__all__ = [
    "BundleCache",
    "TraceBundle",
    "bundle_cache",
    "clear_bundle_cache",
    "get_bundle",
    "group_cells",
    "plan_batches",
    "run_batch_report",
    "workload_key",
    "ResultCache",
    "SpecCampaignResult",
    "cell_token",
    "run_cells",
    "trace_digest",
    "workload_digest",
    "CrossValidationRow",
    "average_reductions",
    "leave_one_out",
    "selection_consensus",
    "DEFAULT_TECHNIQUES",
    "PredictionAnalysis",
    "analyze_predictions",
    "table8_rows",
    "format_percent",
    "format_table",
    "RunOutcome",
    "build_workload",
    "run_cell",
    "run_spec",
    "run_spec_result",
    "run_components_on_trace",
    "EASY_TRIPLE",
    "EASYPP_TRIPLE",
    "ELOSS_TRIPLE",
    "CLAIRVOYANT_EASY",
    "CLAIRVOYANT_SJBF",
    "PAPER_GRID",
    "TRIPLE_NAMES",
    "paper_cells",
]
