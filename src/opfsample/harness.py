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

Each method is one entry of ``_METHOD_TABLE``: its default grid, what it
builds once per trial for every grid value to share, and how a grid value
draws its rows from that. ``METHODS`` lists the table's keys in order. The
O²PF chain is one object, ``_O2pfSweep``: it sweeps the minority rows once, and
its ``rows`` picks a grid value's forest of least cut and draws from that
forest's Gaussians. The grid and :func:`oversample_to_count` both draw through
it.

Each reported statistic (recall, accuracy, F1, the chosen grid value) is one
entry of ``_STATS``, with the trial field it is taken over and its text label.
The summary, both text reports and the comparison CSV read that table.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from . import baselines
from .baselines import (
    NeighborConfig,
    adasyn,
    borderline_smote,
    neighbor_orders,
    smote,
)
from .classifier import OpfClassifier
from .cluster import pairwise_distances, sweep_normalized_cuts
from .data import SPLIT_RATIOS, Dataset, _integer, impute_mean, load_csv, split, standardize
from .errors import ExperimentError
from .metrics import WilcoxonResult, score, wilcoxon_signed_rank
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
# Largest augmented training set a trial may ask for. While a synthesizing trial
# fits, it holds two float64 blocks: the training block (t x t) and the fit's own
# matrix (n x n), exact or holding bounds, 8t² + 8n² bytes for t training and n
# augmented rows, about 6.4 GB as t and n near 20,000. Prediction holds at most
# two v x n blocks for v probes, and the fit's matrix is gone by then. A trial
# that synthesizes nothing holds only its fit's matrix, 8t², 3.2 GB at 20,000
# rows. (Arithmetic, not measured.)
MAX_TRAINING_ROWS = 20_000


def _neighbor_orders(a, width):
    """Borderline-SMOTE's and ADASYN's prepare: the minority rows' neighbor orders."""
    t = a.train
    return neighbor_orders(t.features, t.labels, t.minority_label, width)


# method -> (default grid, prepare, draw). prepare(augmenter, width) builds once
# per trial what every grid value shares, width being the largest grid value;
# draw(augmenter, shared, g, seed) gives grid value g's synthetic minority rows.
# "none" synthesizes nothing. The lambdas name their functions in their bodies,
# so the module attribute is looked up on every call and a function replaced on
# this module is the one that runs.
_METHOD_TABLE = {
    "none": ((), None, None),
    # one sweep up to the largest grid value; g draws as oversample_to_count with k_max = g
    "o2pf": (
        DEFAULT_K_MAX_GRID,
        lambda a, width: _O2pfSweep(a.minority_X, width),
        lambda a, sweep, g, seed: sweep.rows(g, a.n_new, seed),
    ),
    # the minority rows' neighbor order among themselves (a copy, so the full
    # order is freed); kappa reads its first kappa columns
    "smote": (
        DEFAULT_KAPPA_GRID,
        lambda a, width: baselines._neighbor_table(a.minority_X, width).copy(),
        lambda a, order, g, seed: smote(a.minority_X, a.n_new, NeighborConfig(g, seed),
                                        minority_order=order),
    ),
    # the minority rows' distances to every training row, one block sorted once
    # into the all-class and the minority neighbor order
    "borderline_smote": (
        DEFAULT_KAPPA_GRID,
        _neighbor_orders,
        lambda a, orders, g, seed: borderline_smote(
            a.train.features, a.train.labels, a.n_new, NeighborConfig(g, seed),
            minority_label=a.train.minority_label, orders=orders,
        ),
    ),
    "adasyn": (
        DEFAULT_KAPPA_GRID,
        _neighbor_orders,
        lambda a, orders, g, seed: adasyn(
            a.train.features, a.train.labels, NeighborConfig(g, seed), a.n_new,
            minority_label=a.train.minority_label, orders=orders,
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

    ``trials`` (at least 1), ``base_seed`` (at least 0), every grid value (at
    least 1) and an index ``label_column`` pass the one integer rule,
    :func:`opfsample.data._integer`, and ``ratio`` must be a real number that
    is not a bool; each is stored as a plain ``int`` or ``float``, so a numpy
    scalar serializes.
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
        for name, minimum in (("trials", 1), ("base_seed", 0)):
            object.__setattr__(self, name, _integer(getattr(self, name), name, minimum))
        if not isinstance(self.label_column, str):
            object.__setattr__(self, "label_column", _integer(self.label_column, "label_column"))
        if self.balance_mode not in (BALANCE_TO_MAJORITY, RATIO_MODE):
            raise ValueError(f"unknown balance mode {self.balance_mode!r}")
        if isinstance(self.ratio, bool) or not isinstance(self.ratio, numbers.Real):
            raise ValueError(f"ratio must be a real number, got {self.ratio!r}")
        try:
            object.__setattr__(self, "ratio", float(self.ratio))
        except OverflowError:  # an integer past the float range
            raise ValueError("ratio must be a finite nonnegative number") from None
        if not (math.isfinite(self.ratio) and self.ratio >= 0):
            raise ValueError("ratio must be a finite nonnegative number")
        if self.grid is not None:
            if isinstance(self.grid, (str, bytes)) or not hasattr(self.grid, "__iter__"):
                raise ValueError(f"grid must be a sequence of positive integers, got {self.grid!r}")
            grid = tuple(_integer(g, "grid value", 1) for g in self.grid)
            if not grid:
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
        for name, (attr, _) in _STATS.items():
            vals = np.array([v for t in self.trials if (v := getattr(t, attr)) is not None],
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
    """The O²PF draw from some minority rows: one clustering sweep, k in 1..k_max
    up to the first zero cut, and the Gaussians of the forests it selects.

    :meth:`rows` with ``g`` draws from the forest of least cut among the first
    g, the forest a sweep with ``k_max = g`` selects, so one sweep serves every
    g up to k_max. Cuts past the first zero read inf and their forests are
    never built (a cut is never negative and the first minimum wins); each
    selected forest's Gaussians are fitted once, with one eigendecomposition
    each, however many values of g select it.
    """

    def __init__(self, minority_X: np.ndarray, k_max: int):
        self.minority_X = minority_X
        self.cuts, self.forests = sweep_normalized_cuts(minority_X, k_max)
        self._gaussians: dict[int, list[ClusterGaussian]] = {}

    def rows(self, g: int, n_new: int, seed: int) -> np.ndarray:
        """``n_new`` rows from the Gaussians of the forest of least cut among the
        first ``g``, split across its clusters by cluster size."""
        k = _least_cut(self.cuts[:g])
        if k not in self._gaussians:
            self._gaussians[k] = gaussians_from_forest(self.minority_X, self.forests[k])
        clusters = self._gaussians[k]
        return synthesize_plan(clusters, allocate(clusters, n_new), seed)


def oversample_to_count(ds: Dataset, n_new: int, k_max: int, seed: int) -> Dataset:
    """Append exactly ``n_new`` O²PF minority samples to ``ds``, searching k in 1..k_max.

    ``n_new`` and ``seed`` are nonnegative integers (:func:`~opfsample.data._integer`).
    """
    seed = _integer(seed, "seed", 0)
    if _integer(n_new, "n_new", 0) == 0:
        return ds
    minority_X = ds.features[ds.labels == ds.minority_label]
    if minority_X.shape[0] < 2:
        raise ValueError("need at least two minority samples to cluster")
    return append_minority_rows(ds, _O2pfSweep(minority_X, k_max).rows(k_max, n_new, seed))


class _TrialAugmenter:
    """Builds the augmented training set of each grid value of one trial.

    :attr:`n_new` and :attr:`grid` are set once. A method without a grid
    ("none") synthesizes nothing. :attr:`grid` holds the distinct grid values
    in ascending order; when rows are synthesized, they are first clamped to
    the minority count minus one, the largest k or kappa.

    :meth:`augment` draws grid value g's rows with the method's ``draw`` from
    ``_METHOD_TABLE``. What every grid value reads, :attr:`shared`, is built
    once per trial by the method's ``prepare``, on first use, at the width of
    the largest grid value; a grid value reads the prefix a standalone call
    with that value would build, so every draw is the same. Every augmented
    set starts with the training rows in their original order.
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
        self.grid = tuple(sorted({min(g, n_min - 1) if n_new > 0 else g for g in values}))

    @cached_property
    def shared(self):
        """What every grid value's draw reads, from the method's ``prepare``."""
        return _METHOD_TABLE[self.cfg.method][1](self, max(self.grid))

    def augment(self, g: int) -> Dataset:
        """The training set followed by grid value ``g``'s :attr:`n_new` synthetic rows."""
        draw = _METHOD_TABLE[self.cfg.method][2]
        rows = draw(self, self.shared, g, derive_seed(self.trial_seed, g))
        return append_minority_rows(self.train, rows)


def select_hyperparameter(augmenter: _TrialAugmenter, val: Dataset):
    """Pick the grid value maximizing validation minority recall (ties go low).

    Returns the winner, its model and augmented class counts, and the full
    (grid value, validation recall) trace. No set is trained twice: the
    winner's model is the one that scores the test partition.

    When nothing is synthesized (method "none", ratio 0, or a balanced
    training set), every grid value would train the training set itself, so
    it is fitted once, with no shared block, and scored once; every grid value
    gets that recall and the smallest wins. Method "none" has no grid and
    returns (None, model, counts, ()).

    Otherwise the grid values share the training partition's distance
    matrix, built here once per trial, which each fit extends.
    """
    train = augmenter.train
    if not augmenter.n_new:
        model = OpfClassifier().fit(train.features, train.labels)
        if not augmenter.grid:
            return None, model, train.class_counts, ()
        recall = score(val.labels, model.predict_batch(val.features), val.minority_label).recall
        trace = tuple((g, recall) for g in augmenter.grid)
        return augmenter.grid[0], model, train.class_counts, trace
    train_dist = pairwise_distances(train.features)
    chosen, best, trace = None, -math.inf, []
    for g in augmenter.grid:
        aug = augmenter.augment(g)
        model = OpfClassifier().fit(aug.features, aug.labels, known_dist=train_dist)
        labels = model.predict_batch(val.features)
        recall = score(val.labels, labels, val.minority_label).recall
        trace.append((g, recall))
        if recall > best:  # the grid ascends, so a tie keeps the smaller value
            chosen, best, winner = g, recall, (model, aug.class_counts)
    return (chosen, *winner, tuple(trace))


def run_trial(cfg: ExperimentConfig, trial_seed: int, *, trial: int = 0,
              dataset: Dataset) -> TrialReport:
    """Run the full pipeline once on ``dataset`` with the given split seed.

    ``trial``, the index the report records, is a nonnegative integer.
    """
    trial = _integer(trial, "trial", 0)
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
    """One method's paired comparison against the best-mean method.

    ``test`` is the Wilcoxon signed-rank test of the method's recall vector
    against the best-mean method's, as :func:`~opfsample.metrics.wilcoxon_signed_rank`
    returns it. ``equivalent`` is True unless that test is significant and
    the method's mean recall is lower.
    """

    method: str
    test: WilcoxonResult
    is_best: bool
    equivalent: bool


def significance_rows(named_vectors) -> list[SignificanceRow]:
    """Compare each recall vector against the best-mean one.

    A method is flagged equivalent when it is not significantly worse than
    the best-mean method at alpha = 0.05 (inconclusive tests count as
    equivalent). The best method compared against itself has no nonzero
    differences and is inconclusive, hence equivalent. The first of several
    equal best means is the best. No vector, or vectors of unequal lengths,
    raise ``ValueError``.
    """
    names = [name for name, _ in named_vectors]
    vectors = [np.asarray(vec, dtype=np.float64) for _, vec in named_vectors]
    if not vectors:
        raise ValueError("need at least one recall vector to compare")
    if len({v.size for v in vectors}) > 1:
        raise ValueError("all recall vectors must have the same number of trials")
    means = [float(v.mean()) for v in vectors]
    best_i = int(np.argmax(means))
    rows = []
    for i, (name, vec) in enumerate(zip(names, vectors)):
        test = wilcoxon_signed_rank(vec, vectors[best_i])
        worse = means[i] < means[best_i]
        rows.append(SignificanceRow(name, test, i == best_i, not (test.significant and worse)))
    return rows


@dataclass(frozen=True)
class ComparisonReport:
    """Several methods' reports over one seed sequence, and their paired comparison.

    ``rows`` is built here, one :class:`SignificanceRow` per report in order,
    by :func:`significance_rows` over the reports' recall vectors, so a
    report's rows always agree with its reports. Reports with unequal trial
    counts, a method reported twice (its report files share one name), or no
    report at all, raise ``ValueError``.
    """

    reports: tuple[ExperimentReport, ...]
    rows: tuple[SignificanceRow, ...] = field(init=False)

    def __post_init__(self):
        _require_distinct_methods([r.config.method for r in self.reports])
        rows = significance_rows([(r.config.method, r.recall_vector()) for r in self.reports])
        object.__setattr__(self, "rows", tuple(rows))

    @property
    def best_method(self) -> str:
        return next(r.method for r in self.rows if r.is_best)


def _require_distinct_methods(methods) -> None:
    repeated = sorted({m for m in methods if methods.count(m) > 1})
    if repeated:
        raise ValueError(f"each method may be compared once; repeated: {', '.join(repeated)}")


def compare_methods(configs, dataset: Dataset | None = None) -> ComparisonReport:
    """Run several methods on identical seed sequences and compare recall.

    All configs must agree on everything except the method and its grid;
    in particular the seed sequence must match so splits are paired. Each
    method appears once; a repeated one raises ``ValueError`` before any
    trial runs.
    """
    if not configs:
        raise ValueError("need at least one config to compare")
    _require_distinct_methods([cfg.method for cfg in configs])
    ref = configs[0]
    for cfg in configs[1:]:
        same = replace(cfg, method=ref.method, grid=ref.grid)
        if same != ref:
            raise ValueError(
                "methods must share the dataset, trials, base_seed and balance settings "
                "so trials stay seed-paired"
            )
    ds = ref.load_dataset() if dataset is None else dataset
    return ComparisonReport(tuple(run_experiment(cfg, dataset=ds) for cfg in configs))


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
                "p_value_vs_best": row.test.p_value,
                "n_effective": row.test.n_effective,
                "significant": row.test.significant,
                "conclusive": row.test.conclusive,
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
        p = f"{row.test.p_value:.4f}" if row.test.conclusive else "n/a"
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
