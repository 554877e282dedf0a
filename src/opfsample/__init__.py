"""Optimum-path forest clustering, classification, and minority oversampling.

The package has three layers:

- algorithms: :mod:`~opfsample.cluster` (unsupervised optimum-path forest),
  :mod:`~opfsample.classifier` (supervised variant),
  :mod:`~opfsample.oversample` (cluster-guided Gaussian oversampling) and
  :mod:`~opfsample.baselines` (SMOTE, Borderline-SMOTE, ADASYN);
- data plumbing: :mod:`~opfsample.data` and :mod:`~opfsample.metrics`;
- the benchmark harness and CLI: :mod:`~opfsample.harness`,
  :mod:`~opfsample.cli`.
"""

from .baselines import NeighborConfig, adasyn, borderline_smote, smote
from .classifier import OpfClassifier
from .cluster import (
    ClusterForest,
    DensityMap,
    KnnGraph,
    build_knn_graph,
    cluster_ift,
    compute_density,
    find_best_k,
    normalized_cut,
)
from .data import (
    Dataset,
    PreprocessStats,
    SplitSpec,
    impute_mean,
    load_csv,
    split,
    standardize,
)
from .errors import DataError, ExperimentError, UsageError
from .harness import (
    ComparisonReport,
    ExperimentConfig,
    ExperimentReport,
    TrialReport,
    compare_methods,
    run_experiment,
    run_trial,
)
from .metrics import Confusion, Scores, WilcoxonResult, score, wilcoxon_signed_rank
from .oversample import (
    ClusterGaussian,
    OversamplePlan,
    allocate,
    fit_minority_clusters,
    oversample_to_count,
    synthesize,
)

__version__ = "0.1.0"

__all__ = [
    "NeighborConfig", "adasyn", "borderline_smote", "smote",
    "OpfClassifier",
    "ClusterForest", "DensityMap", "KnnGraph",
    "build_knn_graph", "cluster_ift", "compute_density", "find_best_k", "normalized_cut",
    "Dataset", "PreprocessStats", "SplitSpec",
    "impute_mean", "load_csv", "split", "standardize",
    "DataError", "ExperimentError", "UsageError",
    "ComparisonReport", "ExperimentConfig", "ExperimentReport", "TrialReport",
    "compare_methods", "run_experiment", "run_trial",
    "Confusion", "Scores", "WilcoxonResult", "score", "wilcoxon_signed_rank",
    "ClusterGaussian", "OversamplePlan",
    "allocate", "fit_minority_clusters", "oversample_to_count", "synthesize",
    "__version__",
]
