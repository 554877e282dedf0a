"""Benchmark harness: preprocess, split, tune, augment, train, evaluate.

One trial draws a seeded train/validation/test split, fits imputation and
standardization statistics on the training partition only, picks the
oversampler hyperparameter that maximizes minority recall on the validation
partition and scores the test partition with the winner's validation model.
An experiment repeats this over seeds ``base_seed + t``; comparisons across
methods reuse the same seed sequence so every method sees identical
partitions trial by trial, which is what makes the paired signed-rank test
applicable to the per-trial recall vectors.

The test partition is handed to scoring only after the hyperparameter winner
is fixed, so no preprocessing statistic or tuning decision can read it.

Each method is one entry of ``_METHOD_TABLE``: its default grid and its
sampler call. ``METHODS`` lists the table's keys in order. The O²PF chain
sweeps and picks the forest of least cut with ``_O2pfSweep`` and draws from
its Gaussians with ``_o2pf_rows``; the grid and :func:`oversample_to_count`
share both.

Each reported statistic (recall, accuracy, F1, the chosen grid value) is one
entry of ``_STATS``, with the trial field it is taken over and its text label.
The summary, both text reports and the comparison CSV read that table.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from . import baselines
from .baselines import (
    NeighborConfig,
    NeighborOrders,
    _row_block,
    adasyn,
    borderline_smote,
    neighbor_orders,
    smote,
)
from .classifier import OpfClassifier
from .cluster import pairwise_distances, sweep_normalized_cuts
from .data import SPLIT_RATIOS, Dataset, impute_mean, load_csv, split, standardize
from .errors import ExperimentError
from .metrics import score, wilcoxon_signed_rank
from .oversample import (
    ClusterGaussian,
    allocate,
    append_minority_rows,
    gaussians_from_forest,
    synthesize_plan,
)

DEFAULT_K_MAX_GRID = tuple(range(5, 101, 5))
DEFAULT_KAPPA_GRID = tuple(range(5, 11))
BALANCE_TO_MAJORITY = "balance_to_majority"
RATIO_MODE = "ratio"
# Largest augmented training set a trial may ask for. The classifier keeps its
# full (rows x rows) float64 distance matrix, which at 20,000 rows is 3.2 GB.
MAX_TRAINING_ROWS = 20_000

# method -> (default grid, sampler). A sampler maps (augmenter, grid value,
# seed) to synthetic minority rows; "none" synthesizes nothing. Samplers name
# their functions in their bodies, so the module attribute is looked up on
# every call and a function replaced on this module is the one that runs.
_METHOD_TABLE = {
    "none": ((), None),
    "o2pf": (
        DEFAULT_K_MAX_GRID,
        lambda a, g, seed: _o2pf_rows(a.sweep.gaussians(g), a.n_new, seed),
    ),
    "smote": (
        DEFAULT_KAPPA_GRID,
        lambda a, g, seed: smote(a.minority_X, a.n_new, NeighborConfig(g, seed),
                                 minority_order=a.minority_order),
    ),
    "borderline_smote": (
        DEFAULT_KAPPA_GRID,
        lambda a, g, seed: borderline_smote(
            a.train.features, a.train.labels, a.n_new, NeighborConfig(g, seed),
            minority_label=a.train.minority_label, orders=a.orders,
        ),
    ),
    "adasyn": (
        DEFAULT_KAPPA_GRID,
        lambda a, g, seed: adasyn(
            a.train.features, a.train.labels, NeighborConfig(g, seed), a.n_new,
            minority_label=a.train.minority_label, orders=a.orders,
        ),
    ),
}
METHODS = tuple(_METHOD_TABLE)

# statistic -> (TrialReport field, text label), in report order
_STATS = {
    "recall": ("recall", "recall"),
    "accuracy": ("accuracy", "accuracy"),
    "f1": ("f1", "f1"),
    "best_param": ("chosen", "best k"),
}


def derive_seed(*parts: int) -> int:
    """Deterministically mix integer parts into a 64-bit seed."""
    entropy = [int(p) for p in parts]
    return int(np.random.SeedSequence(entropy=entropy).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to run one method on one dataset.

    ``grid`` of None means the method default (k_max in {5,10,...,100} for
    the OPF oversampler, kappa in {5..10} for the SMOTE family). In balance
    mode the training partition is augmented up to its majority count; in
    ratio mode round(ratio * minority count) samples are added.
    """

    data_path: str = ""
    label_column: int | str = -1
    missing_token: str = "?"
    method: str = "o2pf"
    grid: tuple[int, ...] | None = None
    trials: int = 20
    base_seed: int = 0
    balance_mode: str = BALANCE_TO_MAJORITY
    ratio: float = 1.0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.base_seed < 0:
            raise ValueError("base seed must be >= 0")
        if self.balance_mode not in (BALANCE_TO_MAJORITY, RATIO_MODE):
            raise ValueError(f"unknown balance mode {self.balance_mode!r}")
        if not (math.isfinite(self.ratio) and self.ratio >= 0):
            raise ValueError("ratio must be a finite nonnegative number")
        if self.grid is not None:
            grid = tuple(int(g) for g in self.grid)
            if not grid or any(g < 1 for g in grid):
                raise ValueError("grid must be a nonempty tuple of positive integers")
            if self.method == "none":
                raise ValueError("method 'none' takes no hyperparameter grid")
            object.__setattr__(self, "grid", grid)

    @property
    def effective_grid(self) -> tuple[int, ...]:
        return _METHOD_TABLE[self.method][0] if self.grid is None else self.grid

    def load_dataset(self) -> Dataset:
        return load_csv(self.data_path, self.label_column, self.missing_token)


@dataclass(frozen=True)
class TrialReport:
    """Outcome of a single trial."""

    trial: int
    seed: int
    chosen: int | None
    recall: float
    accuracy: float
    f1: float
    validation_trace: tuple[tuple[int, float], ...]
    augmented_counts: tuple[int, int]


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    trials: tuple[TrialReport, ...]

    def recall_vector(self) -> np.ndarray:
        return np.array([t.recall for t in self.trials])

    def summary(self) -> dict:
        """Mean and std of each statistic, over the trials with a value (None if none has)."""
        out = {}
        for name, (field, _) in _STATS.items():
            vals = np.array([v for t in self.trials if (v := getattr(t, field)) is not None],
                            dtype=np.float64)
            out[f"{name}_mean"] = float(vals.mean()) if vals.size else None
            out[f"{name}_std"] = float(vals.std()) if vals.size else None
        return out


def _least_cut(cuts) -> int:
    """Index of the sweep's forest of least normalized cut.

    The first minimum wins, so ties go to the smaller k.
    """
    return int(np.argmin(cuts))


class _O2pfSweep:
    """The clustering sweep of some minority rows, k in 1..k_max up to the first
    zero cut, and the Gaussians of the forests it selects, each fitted once."""

    def __init__(self, minority_X: np.ndarray, k_max: int):
        self.minority_X = minority_X
        self.cuts, self.forests = sweep_normalized_cuts(minority_X, k_max)
        self._gaussians: dict[int, list[ClusterGaussian]] = {}

    def gaussians(self, g: int) -> list[ClusterGaussian]:
        """Gaussians of the forest of least cut among the first ``g``, the forest a
        sweep with ``k_max = g`` selects."""
        k = _least_cut(self.cuts[:g])
        if k not in self._gaussians:
            self._gaussians[k] = gaussians_from_forest(self.minority_X, self.forests[k])
        return self._gaussians[k]


def _o2pf_rows(clusters: list[ClusterGaussian], n_new: int, seed: int) -> np.ndarray:
    """Draw ``n_new`` O²PF rows from a forest's Gaussians, split by cluster size."""
    return synthesize_plan(clusters, allocate(clusters, n_new), seed)


def oversample_to_count(ds: Dataset, n_new: int, k_max: int, seed: int) -> Dataset:
    """Append exactly ``n_new`` O²PF minority samples to ``ds``, searching k in 1..k_max."""
    if n_new < 0:
        raise ValueError("n_new must be nonnegative")
    if n_new == 0:
        return ds
    minority_X = ds.features[ds.labels == ds.minority_label]
    if minority_X.shape[0] < 2:
        raise ValueError("need at least two minority samples to cluster")
    clusters = _O2pfSweep(minority_X, k_max).gaussians(k_max)
    return append_minority_rows(ds, _o2pf_rows(clusters, n_new, seed))


class _TrialAugmenter:
    """Builds the augmented training set of each grid value and trains it once.

    :attr:`n_new` and :attr:`grid` are set once. A method without a grid
    ("none") synthesizes nothing. When rows are synthesized, the grid values
    are clamped to the minority count minus one, the largest k or kappa.

    :meth:`augment` calls the method's sampler from ``_METHOD_TABLE``. What
    depends only on the training partition is computed once per trial, on
    first use, and shared by every grid value:

    - O²PF: the per-k clustering :attr:`sweep`, up to the largest grid value
      or the first zero normalized cut, whichever comes first. Grid value g
      takes the forest of least cut among the first g
      (:meth:`_O2pfSweep.gaussians`), which matches
      :func:`oversample_to_count` with ``k_max = g``; cuts past the first
      zero read ``inf`` and their forests are never built, since a cut is
      never negative and the first minimum wins. Each selected forest
      gets its Gaussians fitted once, and each Gaussian its
      eigendecomposition once, however many grid values select it.
    - SMOTE: the minority rows' neighbor order :attr:`minority_order`.
    - Borderline-SMOTE and ADASYN: the minority rows' distances to every
      training row, one block sorted once into the all-class and the
      minority neighbor order (:attr:`orders`).

    Each order keeps only its first ``max(grid)`` columns; grid value kappa
    reads the first kappa, which is the table a standalone sampler call
    sorts for that kappa, so every draw is the same.

    Every augmented set starts with the training rows in their original
    order, so the training partition's distance matrix :attr:`train_dist` is
    computed once per trial, and each classifier fit extends it. In the same
    way, :meth:`train_distances` gives the validation partition's distances
    to the training rows once, and each grid value's prediction computes only
    the synthetic columns.

    No set is trained twice: the model that wins on the validation partition
    is the one that scores the test partition.
    """

    def __init__(self, train: Dataset, cfg: ExperimentConfig, trial_seed: int):
        self.train = train
        self.cfg = cfg
        self.trial_seed = trial_seed
        counts = train.class_counts
        n_min = counts[train.minority_label]
        n_maj = counts[train.majority_label]
        values = cfg.effective_grid
        if not values:  # a method without a grid synthesizes nothing
            n_new = 0
        elif cfg.balance_mode == BALANCE_TO_MAJORITY:
            n_new = max(0, n_maj - n_min)
        else:
            n_new = cfg.ratio * n_min
            if math.isfinite(n_new):  # past the float range it is over the cap anyway
                n_new = round(n_new)
        rows = train.n_samples + n_new
        if rows > MAX_TRAINING_ROWS:
            raise ExperimentError(
                f"cannot oversample: the augmented training set would hold {rows:.6g} rows, "
                f"more than the cap of {MAX_TRAINING_ROWS}"
            )
        if n_new > 0 and n_min < 2:
            raise ExperimentError(
                "cannot oversample: fewer than two minority samples in the training partition"
            )
        self.n_new = n_new
        self.minority_X = train.features[train.labels == train.minority_label]
        self.grid = tuple(sorted({min(g, n_min - 1) for g in values})) if n_new > 0 else values

    @cached_property
    def sweep(self) -> _O2pfSweep:
        """The O²PF sweep up to the largest grid value or the first zero cut."""
        return _O2pfSweep(self.minority_X, max(self.grid))

    @cached_property
    def minority_order(self) -> np.ndarray:
        """The minority rows' neighbor order among themselves, ``max(grid)`` columns wide
        (a copy, so the full order is freed)."""
        return baselines._neighbor_table(self.minority_X, max(self.grid)).copy()

    @cached_property
    def orders(self) -> NeighborOrders:
        """The minority rows' all-class and minority neighbor orders, ``max(grid)`` columns wide."""
        t = self.train
        return neighbor_orders(t.features, t.labels, t.minority_label, max(self.grid))

    @cached_property
    def train_dist(self) -> np.ndarray:
        """Distance matrix of the training partition, the first rows of every augmented set."""
        return pairwise_distances(self.train.features)

    def train_distances(self, X: np.ndarray) -> np.ndarray:
        """Each row of ``X``'s distances to the training rows, the first columns of every
        augmented set; a cell that overflows reads inf, which prediction rejects."""
        with np.errstate(over="ignore", invalid="ignore"):
            return _row_block(self.train.features, X)

    def augment(self, g: int | None) -> Dataset:
        if self.n_new == 0:
            return self.train
        sample = _METHOD_TABLE[self.cfg.method][1]
        return append_minority_rows(self.train, sample(self, g, derive_seed(self.trial_seed, g)))

    def fit(self, g: int | None) -> tuple[OpfClassifier, tuple[int, int]]:
        """Train on the set augmented with ``g``; return the model and the set's class counts."""
        aug = self.augment(g)
        model = OpfClassifier().fit(aug.features, aug.labels, known_dist=self.train_dist)
        return model, aug.class_counts


def select_hyperparameter(augmenter: _TrialAugmenter, val: Dataset):
    """Pick the grid value maximizing validation minority recall (ties go low).

    Returns the winner, its model and augmented class counts, and the full
    (grid value, validation recall) trace. Method "none" has no grid and
    returns (None, model, counts, ()) for the unaugmented training set.
    """
    if not augmenter.grid:
        return (None, *augmenter.fit(None), ())
    known = augmenter.train_distances(val.features)
    chosen, best, trace = None, -math.inf, []
    for g in augmenter.grid:
        model, counts = augmenter.fit(g)
        labels = model.predict_batch(val.features, known=known)
        recall = score(val.labels, labels, val.minority_label).recall
        trace.append((g, recall))
        if recall > best:  # the grid ascends, so a tie keeps the smaller value
            chosen, best, winner = g, recall, (model, counts)
    return (chosen, *winner, tuple(trace))


def run_trial(cfg: ExperimentConfig, trial_seed: int, *, trial: int = 0,
              dataset: Dataset) -> TrialReport:
    """Run the full pipeline once on ``dataset`` with the given split seed."""
    train_raw, val_raw, test_raw = split(dataset, trial_seed)
    train, (val,) = impute_mean(train_raw, [val_raw])
    stats, train = standardize(train)
    val = stats.apply(val, "validation")
    augmenter = _TrialAugmenter(train, cfg, trial_seed)
    chosen, model, counts, trace = select_hyperparameter(augmenter, val)
    # the test partition is first touched here, after the winner is fixed
    _, (test,) = impute_mean(train_raw, [test_raw])
    test = stats.apply(test, "test")
    scores = score(test.labels, model.predict_batch(test.features), test.minority_label)
    return TrialReport(
        trial=trial,
        seed=trial_seed,
        chosen=chosen,
        recall=scores.recall,
        accuracy=scores.accuracy,
        f1=scores.f1,
        validation_trace=trace,
        augmented_counts=counts,
    )


def run_experiment(cfg: ExperimentConfig, dataset: Dataset | None = None) -> ExperimentReport:
    """Run ``cfg.trials`` trials with seeds base_seed + t."""
    ds = cfg.load_dataset() if dataset is None else dataset
    trials = tuple(
        run_trial(cfg, cfg.base_seed + t, trial=t, dataset=ds) for t in range(cfg.trials)
    )
    return ExperimentReport(cfg, trials)


@dataclass(frozen=True)
class SignificanceRow:
    """One method's paired comparison against the best-mean method."""

    method: str
    p_value: float
    n_effective: int
    significant: bool
    conclusive: bool
    is_best: bool
    equivalent: bool


def significance_rows(named_vectors) -> list[SignificanceRow]:
    """Compare each recall vector against the best-mean one.

    A method is flagged equivalent when it is not significantly worse than
    the best-mean method at alpha = 0.05 (inconclusive tests count as
    equivalent). The best method compared against itself has no nonzero
    differences and is inconclusive, hence equivalent.
    """
    names = [name for name, _ in named_vectors]
    vectors = [np.asarray(vec, dtype=np.float64) for _, vec in named_vectors]
    if len({v.size for v in vectors}) > 1:
        raise ValueError("all recall vectors must have the same number of trials")
    means = [float(v.mean()) for v in vectors]
    best_i = int(np.argmax(means))
    rows = []
    for i, (name, vec) in enumerate(zip(names, vectors)):
        res = wilcoxon_signed_rank(vec, vectors[best_i])
        worse = means[i] < means[best_i]
        rows.append(
            SignificanceRow(
                method=name,
                p_value=res.p_value,
                n_effective=res.n_effective,
                significant=res.significant,
                conclusive=res.conclusive,
                is_best=i == best_i,
                equivalent=not (res.significant and worse),
            )
        )
    return rows


@dataclass(frozen=True)
class ComparisonReport:
    reports: tuple[ExperimentReport, ...]
    rows: tuple[SignificanceRow, ...]

    @property
    def best_method(self) -> str:
        return next(r.method for r in self.rows if r.is_best)


def compare_methods(configs, dataset: Dataset | None = None) -> ComparisonReport:
    """Run several methods on identical seed sequences and compare recall.

    All configs must agree on everything except the method and its grid;
    in particular the seed sequence must match so splits are paired.
    """
    if not configs:
        raise ValueError("need at least one config to compare")
    ref = configs[0]
    for cfg in configs[1:]:
        same = replace(cfg, method=ref.method, grid=ref.grid)
        if same != ref:
            raise ValueError(
                "methods must share the dataset, trials, base_seed and balance settings "
                "so trials stay seed-paired"
            )
    ds = ref.load_dataset() if dataset is None else dataset
    reports = tuple(run_experiment(cfg, dataset=ds) for cfg in configs)
    rows = significance_rows([(r.config.method, r.recall_vector()) for r in reports])
    return ComparisonReport(reports, tuple(rows))


# ---------------------------------------------------------------------------
# Report serialization. All emitters are deterministic: rerunning with the
# same config yields byte-identical output (reports carry no timestamps).


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _csv(header: str, rows) -> str:
    """One line per row; None is an empty cell, any other value is ``str()``."""
    lines = [header]
    lines += [",".join("" if v is None else str(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def report_to_dict(report: ExperimentReport) -> dict:
    return {
        "config": {**asdict(report.config), "grid": list(report.config.effective_grid),
                   "ratios": list(SPLIT_RATIOS)},
        "summary": report.summary(),
        "trials": [asdict(t) for t in report.trials],
    }


def report_to_json(report: ExperimentReport) -> str:
    return _json(report_to_dict(report))


def trials_csv(report: ExperimentReport) -> str:
    return _csv(
        "trial,seed,chosen,recall,accuracy,f1,count_label0,count_label1",
        ((t.trial, t.seed, t.chosen, t.recall, t.accuracy, t.f1, *t.augmented_counts)
         for t in report.trials),
    )


def validation_trace_csv(report: ExperimentReport) -> str:
    """Per-trial validation recall over the grid, for external plotting."""
    return _csv(
        "trial,grid_value,validation_recall",
        ((t.trial, g, r) for t in report.trials for g, r in t.validation_trace),
    )


def comparison_to_dict(cmp: ComparisonReport) -> dict:
    return {
        "best_method": cmp.best_method,
        "methods": [
            {
                "method": row.method,
                "summary": report.summary(),
                "recall_vector": [t.recall for t in report.trials],
                "p_value_vs_best": row.p_value,
                "n_effective": row.n_effective,
                "significant": row.significant,
                "conclusive": row.conclusive,
                "equivalent_to_best": row.equivalent,
            }
            for report, row in zip(cmp.reports, cmp.rows)
        ],
    }


def comparison_to_json(cmp: ComparisonReport) -> str:
    return _json(comparison_to_dict(cmp))


def comparison_csv(cmp: ComparisonReport) -> str:
    columns = ("method", *(f"{name}_{part}" for name in _STATS for part in ("mean", "std")),
               "p_value_vs_best", "significant", "equivalent_to_best", "n_effective", "conclusive")
    methods = ({**m, **m["summary"]} for m in comparison_to_dict(cmp)["methods"])
    return _csv(",".join(columns), ([m[c] for c in columns] for m in methods))


def _fmt(summary: dict, name: str) -> str:
    mean, std = summary[f"{name}_mean"], summary[f"{name}_std"]
    if mean is None:
        return "-"
    return f"{mean:.4f} +/- {std:.4f}"


def render_report_text(report: ExperimentReport) -> str:
    s = report.summary()
    cfg = report.config
    lines = [f"method {cfg.method} on {cfg.data_path} ({cfg.trials} trials, base seed {cfg.base_seed})"]
    lines += [f"  {label:<10}{_fmt(s, name)}" for name, (_, label) in _STATS.items()]
    return "\n".join(lines) + "\n"


def render_comparison_text(cmp: ComparisonReport) -> str:
    # column widths: method, one per statistic, p vs best, best-group (unpadded)
    widths = (18, *(20 for _ in _STATS), 12, 0)
    table = [["method", *(label for _, label in _STATS.values()), "p vs best", "best-group"]]
    for report, row in zip(cmp.reports, cmp.rows):
        s = report.summary()
        p = f"{row.p_value:.4f}" if row.conclusive else "n/a"
        mark = "*" if row.equivalent else ""
        table.append([row.method, *(_fmt(s, name) for name in _STATS), p, mark])
    header, *rows = (" ".join(f"{c:<{w}}" for c, w in zip(cells, widths)) for cells in table)
    lines = [header, "-" * len(header), *rows, ""]
    lines.append("* not significantly worse than the best-mean method (alpha = 0.05)")
    return "\n".join(lines) + "\n"


def _write_files(out_dir, files) -> list[Path]:
    """Write each (file name, text) pair under ``out_dir``, in order."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / name for name, _ in files]
    for path, (_, text) in zip(paths, files):
        path.write_text(text, encoding="utf-8")
    return paths


def _experiment_files(report: ExperimentReport) -> list[tuple[str, str]]:
    method = report.config.method
    return [
        (f"{method}_report.json", report_to_json(report)),
        (f"{method}_trials.csv", trials_csv(report)),
        (f"{method}_validation_trace.csv", validation_trace_csv(report)),
    ]


def write_experiment_files(report: ExperimentReport, out_dir) -> list[Path]:
    return _write_files(out_dir, _experiment_files(report))


def write_comparison_files(cmp: ComparisonReport, out_dir) -> list[Path]:
    files = [("comparison.json", comparison_to_json(cmp)), ("comparison.csv", comparison_csv(cmp))]
    for report in cmp.reports:
        files += _experiment_files(report)
    return _write_files(out_dir, files)
