"""Cost-aware evaluation toolkit for release-level defect prediction.

Computes twenty performance metrics and ten confounding variables per
evaluation, the cost-bound model (lower/upper/diff and the four-level ordinal
cost-saving potential), and runs bootstrap, cross-version and cross-project
experiment pipelines with relationship modeling and sensitivity analysis.
"""

from .confounders import CONFOUNDER_NAMES, ConfounderVector, compute_confounders
from .costmodel import (
    DEFAULT_BOUNDARIES,
    CostBounds,
    DefectOutcome,
    Potential,
    classify_potential,
    cost_bounds,
    defect_outcome,
    diff_simplified,
)
from .dataset import (
    DataError,
    Defect,
    Release,
    ReleaseView,
    SplitError,
    SplitSample,
    bootstrap_split,
    filter_releases,
    load_corpus,
    load_release,
    load_release_dir,
    write_release,
)
from .experiments import (
    EvalConfig,
    EvaluationRecord,
    ForestModel,
    GaussianNBModel,
    RunResult,
    evaluate_external_prediction,
    read_records,
    run_bootstrap,
    run_cross_project,
    run_cross_version,
    transfer_transform,
    write_records_csv,
    write_records_jsonl,
)
from .metrics import (
    METRIC_NAMES,
    ConfusionCounts,
    MetricVector,
    Prediction,
    auc,
    auc_alberg,
    auc_recall_pf,
    confusion_counts,
    confusion_metrics,
    effort_metrics,
    evaluate_metrics,
)
from .synth import SynthSpec, generate_synthetic

__version__ = "0.1.0"

__all__ = [
    "CONFOUNDER_NAMES",
    "ConfounderVector",
    "ConfusionCounts",
    "CostBounds",
    "DEFAULT_BOUNDARIES",
    "DataError",
    "Defect",
    "DefectOutcome",
    "EvalConfig",
    "EvaluationRecord",
    "ForestModel",
    "GaussianNBModel",
    "METRIC_NAMES",
    "MetricVector",
    "Potential",
    "Prediction",
    "Release",
    "ReleaseView",
    "RunResult",
    "SplitError",
    "SplitSample",
    "SynthSpec",
    "auc",
    "auc_alberg",
    "auc_recall_pf",
    "bootstrap_split",
    "classify_potential",
    "compute_confounders",
    "confusion_counts",
    "confusion_metrics",
    "cost_bounds",
    "defect_outcome",
    "diff_simplified",
    "effort_metrics",
    "evaluate_external_prediction",
    "evaluate_metrics",
    "filter_releases",
    "generate_synthetic",
    "load_corpus",
    "load_release",
    "load_release_dir",
    "read_records",
    "run_bootstrap",
    "run_cross_project",
    "run_cross_version",
    "transfer_transform",
    "write_records_csv",
    "write_records_jsonl",
    "write_release",
]
