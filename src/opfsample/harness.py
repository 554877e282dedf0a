"""Benchmark harness: preprocess, split, tune, augment, train, evaluate.

One trial draws a seeded train/validation/test split, fits imputation and
standardization statistics on the training partition only, picks the
oversampler hyperparameter that maximizes minority recall on the validation
partition, re-augments with the winner and scores on the test partition. An
experiment repeats this over seeds ``base_seed + t``; comparisons across
methods reuse the same seed sequence so every method sees identical
partitions trial by trial, which is what makes the paired signed-rank test
applicable to the per-trial recall vectors.

The test partition is handed to scoring only after the hyperparameter winner
is fixed, so no preprocessing statistic or tuning decision can read it.

Each method is one entry of ``_METHOD_TABLE``: its default grid and its
sampler call. ``METHODS`` lists the table's keys in order. The O²PF chain
(least-cut forest, Gaussians, allocation, synthesis) is ``_o2pf_rows``, which
the grid and :func:`oversample_to_count` share.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .baselines import NeighborConfig, adasyn, borderline_smote, smote
from .classifier import OpfClassifier
from .cluster import ClusterForest, pairwise_distances, sweep_normalized_cuts
from .data import Dataset, SplitSpec, impute_mean, load_csv, split, standardize
from .errors import ExperimentError
from .metrics import score, wilcoxon_signed_rank
from .oversample import allocate, append_minority_rows, gaussians_from_forest, synthesize_plan

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
        lambda a, g, seed: _o2pf_rows(a.minority_X, *(part[:g] for part in a.sweep), a.n_new, seed),
    ),
    "smote": (
        DEFAULT_KAPPA_GRID,
        lambda a, g, seed: smote(a.minority_X, a.n_new, NeighborConfig(g, seed)),
    ),
    "borderline_smote": (
        DEFAULT_KAPPA_GRID,
        lambda a, g, seed: borderline_smote(
            a.train.features, a.train.labels, a.n_new, NeighborConfig(g, seed),
            minority_label=a.train.minority_label,
        ),
    ),
    "adasyn": (
        DEFAULT_KAPPA_GRID,
        lambda a, g, seed: adasyn(
            a.train.features, a.train.labels, NeighborConfig(g, seed), a.n_new,
            minority_label=a.train.minority_label,
        ),
    ),
}
METHODS = tuple(_METHOD_TABLE)


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
    ratios: tuple[float, float, float] = (0.7, 0.15, 0.15)
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
        object.__setattr__(self, "ratios", tuple(float(r) for r in self.ratios))

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
        out = {}
        for name in ("recall", "accuracy", "f1"):
            vals = np.array([getattr(t, name) for t in self.trials], dtype=np.float64)
            out[f"{name}_mean"] = float(vals.mean())
            out[f"{name}_std"] = float(vals.std())
        chosen = [t.chosen for t in self.trials if t.chosen is not None]
        if chosen:
            vals = np.array(chosen, dtype=np.float64)
            out["best_param_mean"] = float(vals.mean())
            out["best_param_std"] = float(vals.std())
        else:
            out["best_param_mean"] = None
            out["best_param_std"] = None
        return out


def _o2pf_rows(minority_X: np.ndarray, cuts, forests, n_new: int, seed: int) -> np.ndarray:
    """Draw ``n_new`` O²PF rows from the sweep's forest of least normalized cut.

    The first minimum wins, so ties go to the smaller k.
    """
    clusters = gaussians_from_forest(minority_X, forests[int(np.argmin(cuts))])
    return synthesize_plan(clusters, allocate(clusters, n_new), seed)


def oversample_to_count(ds: Dataset, n_new: int, k_max: int, seed: int) -> Dataset:
    """Append exactly ``n_new`` O²PF minority samples to ``ds``, searching k in 1..k_max."""
    if n_new < 0:
        raise ValueError("n_new must be nonnegative")
    if n_new == 0:
        return ds
    minority_X = ds.features[ds.labels == ds.minority_label]
    if minority_X.shape[0] == 0:
        raise ValueError("minority class is absent")
    if minority_X.shape[0] < 2:
        raise ValueError("need at least two minority samples to cluster")
    rows = _o2pf_rows(minority_X, *sweep_normalized_cuts(minority_X, k_max), n_new, seed)
    return append_minority_rows(ds, rows)


class _TrialAugmenter:
    """Builds, trains and scores the augmented training set of each grid value.

    :meth:`augment` calls the method's sampler from ``_METHOD_TABLE``. For the
    OPF oversampler the per-k clustering :attr:`sweep` is computed once up to
    the largest grid value; grid value g hands its first g entries to
    :func:`_o2pf_rows`, which matches :func:`oversample_to_count` with
    ``k_max = g``.

    Every augmented set starts with the training rows in their original
    order, so :meth:`evaluate` computes the training partition's distance
    matrix once per trial, on first use, and each classifier fit extends it.
    """

    def __init__(self, train: Dataset, cfg: ExperimentConfig, trial_seed: int):
        self.train = train
        self.cfg = cfg
        self.trial_seed = trial_seed
        counts = train.class_counts
        n_min = counts[train.minority_label]
        n_maj = counts[train.majority_label]
        if cfg.balance_mode == BALANCE_TO_MAJORITY:
            n_new = max(0, n_maj - n_min)
        else:
            n_new = cfg.ratio * n_min
            if math.isfinite(n_new):  # past the float range it is over the cap anyway
                n_new = round(n_new)
        rows = train.n_samples + n_new
        if cfg.method != "none" and rows > MAX_TRAINING_ROWS:
            raise ExperimentError(
                f"cannot oversample: the augmented training set would hold {rows:.6g} rows, "
                f"more than the cap of {MAX_TRAINING_ROWS}"
            )
        self.n_new = n_new
        self.minority_X = train.features[train.labels == train.minority_label]
        if self.n_new > 0 and cfg.method != "none" and self.minority_X.shape[0] < 2:
            raise ExperimentError(
                "cannot oversample: fewer than two minority samples in the training partition"
            )
        self._train_dist = None

    def grid(self) -> tuple[int, ...]:
        values = self.cfg.effective_grid
        if not values or self.n_new == 0:
            return values
        cap = self.minority_X.shape[0] - 1
        clamped = sorted({min(g, cap) for g in values})
        return tuple(g for g in clamped if g >= 1)

    @cached_property
    def sweep(self) -> tuple[np.ndarray, list[ClusterForest]]:
        """Normalized cut and forest for every k up to the largest grid value."""
        return sweep_normalized_cuts(self.minority_X, max(self.grid()))

    def augment(self, g: int | None) -> Dataset:
        if g is None or self.n_new == 0:
            return self.train
        sample = _METHOD_TABLE[self.cfg.method][1]
        return append_minority_rows(self.train, sample(self, g, derive_seed(self.trial_seed, g)))

    def evaluate(self, g: int | None, part: Dataset):
        """Train on the set augmented with ``g`` and score it on ``part``.

        Returns the scores and the augmented set's class counts.
        """
        aug = self.augment(g)
        if self._train_dist is None:
            self._train_dist = pairwise_distances(self.train.features)
        model = OpfClassifier().fit(aug.features, aug.labels, known_dist=self._train_dist)
        s = score(part.labels, model.predict_batch(part.features), part.minority_label)
        return s, aug.class_counts


def select_hyperparameter(
    augmenter: _TrialAugmenter, val: Dataset
) -> tuple[int | None, tuple[tuple[int, float], ...]]:
    """Pick the grid value maximizing validation minority recall (ties go low).

    Returns the winner plus the full (grid value, validation recall) trace.
    Method "none" has no grid and returns (None, ()). The grid ascends and
    ``max`` keeps the first of equal recalls.
    """
    trace = tuple((g, augmenter.evaluate(g, val)[0].recall) for g in augmenter.grid())
    return max(trace, key=lambda entry: entry[1], default=(None,))[0], trace


def run_trial(
    cfg: ExperimentConfig,
    trial_seed: int,
    *,
    trial: int = 0,
    dataset: Dataset | None = None,
) -> TrialReport:
    """Run the full pipeline once with the given split seed."""
    ds = cfg.load_dataset() if dataset is None else dataset
    train_raw, val_raw, test_raw = split(ds, SplitSpec(cfg.ratios, trial_seed))
    train, (val,) = impute_mean(train_raw, [val_raw])
    stats, train, (val,) = standardize(train, [val])
    augmenter = _TrialAugmenter(train, cfg, trial_seed)
    chosen, trace = select_hyperparameter(augmenter, val)
    # the test partition is first touched here, after the winner is fixed
    _, (test,) = impute_mean(train_raw, [test_raw])
    test = test.with_features(stats.apply(test.features))
    scores, counts = augmenter.evaluate(chosen, test)
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
    mean_recall: float
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
                mean_recall=means[i],
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
                "methods must share the dataset, ratios, trials and base_seed "
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
        "config": {**asdict(report.config), "grid": list(report.config.effective_grid)},
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
    stats = (
        "recall_mean", "recall_std", "accuracy_mean", "accuracy_std", "f1_mean", "f1_std",
        "best_param_mean", "best_param_std",
    )
    return _csv(
        ",".join(("method", *stats, "p_value_vs_best", "significant", "equivalent_to_best")),
        (
            (m["method"], *(m["summary"][k] for k in stats),
             m["p_value_vs_best"], m["significant"], m["equivalent_to_best"])
            for m in comparison_to_dict(cmp)["methods"]
        ),
    )


def _fmt(mean, std) -> str:
    if mean is None:
        return "-"
    return f"{mean:.4f} +/- {std:.4f}"


def render_report_text(report: ExperimentReport) -> str:
    s = report.summary()
    cfg = report.config
    lines = [
        f"method {cfg.method} on {cfg.data_path} ({cfg.trials} trials, base seed {cfg.base_seed})",
        f"  recall    {_fmt(s['recall_mean'], s['recall_std'])}",
        f"  accuracy  {_fmt(s['accuracy_mean'], s['accuracy_std'])}",
        f"  f1        {_fmt(s['f1_mean'], s['f1_std'])}",
        f"  best k    {_fmt(s['best_param_mean'], s['best_param_std'])}",
    ]
    return "\n".join(lines) + "\n"


def render_comparison_text(cmp: ComparisonReport) -> str:
    header = f"{'method':<18} {'recall':<20} {'accuracy':<20} {'f1':<20} {'best k':<20} {'p vs best':<12} best-group"
    lines = [header, "-" * len(header)]
    for report, row in zip(cmp.reports, cmp.rows):
        s = report.summary()
        p = f"{row.p_value:.4f}" if row.conclusive else "n/a"
        mark = "*" if row.equivalent else ""
        lines.append(
            f"{row.method:<18} {_fmt(s['recall_mean'], s['recall_std']):<20} "
            f"{_fmt(s['accuracy_mean'], s['accuracy_std']):<20} "
            f"{_fmt(s['f1_mean'], s['f1_std']):<20} "
            f"{_fmt(s['best_param_mean'], s['best_param_std']):<20} {p:<12} {mark}"
        )
    lines.append("")
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
