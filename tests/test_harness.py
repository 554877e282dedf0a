import json

import numpy as np
import pytest

from opfsample import classifier, harness, oversample_to_count
from opfsample.data import Dataset, split as data_split
from opfsample.errors import ExperimentError
from opfsample.harness import (
    ExperimentConfig,
    _TrialAugmenter,
    compare_methods,
    comparison_csv,
    comparison_to_json,
    derive_seed,
    render_comparison_text,
    render_report_text,
    report_to_json,
    run_experiment,
    run_trial,
    significance_rows,
    trials_csv,
    validation_trace_csv,
)

from helpers import blob_dataset, pairwise_rows


@pytest.fixture
def small_ds():
    X, y = blob_dataset(np.random.default_rng(71), n_maj=60, n_min=24, m=3, sep=2.0)
    return Dataset.from_arrays(X, y)


def _cfg(**kw):
    defaults = dict(data_path="unused.csv", method="o2pf", grid=(3, 6), trials=2, base_seed=5)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(method="bogus")
    with pytest.raises(ValueError):
        ExperimentConfig(trials=0)
    with pytest.raises(ValueError, match="seed"):
        ExperimentConfig(base_seed=-1)
    with pytest.raises(ValueError):
        ExperimentConfig(method="none", grid=(3,))
    with pytest.raises(ValueError):
        ExperimentConfig(grid=())
    with pytest.raises(ValueError):
        ExperimentConfig(balance_mode="half")
    for ratio in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            ExperimentConfig(balance_mode="ratio", ratio=ratio)
    assert ExperimentConfig(method="smote").effective_grid == tuple(range(5, 11))
    assert ExperimentConfig(method="o2pf").effective_grid == tuple(range(5, 101, 5))
    assert ExperimentConfig(method="none").effective_grid == ()


def test_singleton_grid_chooses_it(small_ds):
    cfg = _cfg(grid=(4,), trials=1)
    report = run_trial(cfg, trial_seed=3, dataset=small_ds)
    assert report.chosen == 4
    assert [g for g, _ in report.validation_trace] == [4]


def test_method_none_has_no_grid(small_ds):
    cfg = _cfg(method="none", grid=None, trials=1)
    report = run_trial(cfg, trial_seed=3, dataset=small_ds)
    assert report.chosen is None
    assert report.validation_trace == ()
    # no augmentation happened
    n0, n1 = report.augmented_counts
    assert n0 + n1 < small_ds.n_samples


def test_trials_one_aggregate_equals_single_trial(small_ds):
    cfg = _cfg(trials=1)
    report = run_experiment(cfg, dataset=small_ds)
    assert len(report.trials) == 1
    s = report.summary()
    t = report.trials[0]
    assert s["recall_mean"] == t.recall
    assert s["recall_std"] == 0.0
    assert s["best_param_mean"] == t.chosen
    assert s["best_param_std"] == 0.0


def test_trial_seeds_are_base_plus_index(small_ds):
    report = run_experiment(_cfg(trials=3, base_seed=100), dataset=small_ds)
    assert [t.seed for t in report.trials] == [100, 101, 102]
    assert [t.trial for t in report.trials] == [0, 1, 2]


def test_rerun_is_byte_identical(small_ds):
    cfg = _cfg(trials=2)
    a = run_experiment(cfg, dataset=small_ds)
    b = run_experiment(cfg, dataset=small_ds)
    assert report_to_json(a) == report_to_json(b)
    assert trials_csv(a) == trials_csv(b)
    assert validation_trace_csv(a) == validation_trace_csv(b)


def test_balance_postcondition(small_ds):
    cfg = _cfg(trials=2)
    report = run_experiment(cfg, dataset=small_ds)
    for t in report.trials:
        n0, n1 = t.augmented_counts
        assert abs(n0 - n1) <= 1


def test_ratio_mode_counts(small_ds):
    train, _, _ = data_split(small_ds, harness.SplitSpec(_cfg().ratios, 2))
    n_min = train.class_counts[train.minority_label]
    # ratio 0 leaves the training set unchanged; ratio 1 doubles the minority
    cfg = _cfg(trials=1, balance_mode="ratio", ratio=0.0)
    assert run_trial(cfg, trial_seed=2, dataset=small_ds).augmented_counts == train.class_counts
    cfg = _cfg(trials=1, balance_mode="ratio", ratio=1.0)
    counts = run_trial(cfg, trial_seed=2, dataset=small_ds).augmented_counts
    assert counts[small_ds.minority_label] == 2 * n_min


@pytest.mark.parametrize("method", ["o2pf", "smote"])
def test_training_rows_are_capped_before_any_work(small_ds, monkeypatch, method):
    train, _, _ = data_split(small_ds, harness.SplitSpec(_cfg().ratios, 2))
    n_train, n_min = train.n_samples, train.class_counts[train.minority_label]
    cap = harness.MAX_TRAINING_ROWS
    at_cap = _TrialAugmenter(train, _cfg(method=method, balance_mode="ratio",
                                         ratio=(cap - n_train) / n_min), 2)
    assert n_train + at_cap.n_new == cap
    ratio = (cap + 1 - n_train) / n_min
    assert n_train + round(ratio * n_min) == cap + 1
    with pytest.raises(ExperimentError, match=f"hold {cap + 1} rows"):
        _TrialAugmenter(train, _cfg(method=method, balance_mode="ratio", ratio=ratio), 2)

    def no_distances(*args, **kwargs):
        raise AssertionError("distances computed before the row cap was checked")

    monkeypatch.setattr(harness, "pairwise_distances", no_distances)
    for ratio in (1e300, 1e308):  # 1e308 * n_min is past the float range
        cfg = _cfg(method=method, balance_mode="ratio", ratio=ratio)
        with pytest.raises(ExperimentError, match="rows, more than the cap"):
            run_trial(cfg, trial_seed=2, dataset=small_ds)


def test_row_cap_ignores_method_none(small_ds):
    cfg = _cfg(method="none", grid=None, trials=1, balance_mode="ratio", ratio=1e308)
    report = run_trial(cfg, trial_seed=2, dataset=small_ds)
    train, _, _ = data_split(small_ds, harness.SplitSpec(cfg.ratios, 2))
    assert report.augmented_counts == train.class_counts


def test_grid_clamped_to_minority_count(small_ds):
    cfg = _cfg(grid=(5, 10, 50, 80))
    train, _, _ = data_split(small_ds, harness.SplitSpec(cfg.ratios, 4))
    aug = _TrialAugmenter(train, cfg, trial_seed=4)
    grid = aug.grid()
    n_min = train.class_counts[train.minority_label]
    assert max(grid) == n_min - 1
    assert grid == tuple(sorted(set(grid)))


def test_o2pf_augmenter_matches_oversample_to_count(small_ds):
    cfg = _cfg(grid=(2, 4, 8))
    train, _, _ = data_split(small_ds, harness.SplitSpec(cfg.ratios, 9))
    aug = _TrialAugmenter(train, cfg, trial_seed=9)
    for g in aug.grid():
        expected = oversample_to_count(train, aug.n_new, g, derive_seed(9, g))
        got = aug.augment(g)
        np.testing.assert_array_equal(got.features, expected.features)
        np.testing.assert_array_equal(got.labels, expected.labels)


def test_validation_tie_chooses_smallest_grid_value():
    # a perfectly balanced dataset in balance mode needs no synthesis, so the
    # augmented set (and hence the validation recall) is identical for every
    # grid value: the tie must resolve to the smallest one
    rng = np.random.default_rng(73)
    X = np.vstack([rng.normal(size=(40, 3)), rng.normal(size=(40, 3)) + 2.0])
    y = np.r_[np.zeros(40, dtype=int), np.ones(40, dtype=int)]
    ds = Dataset.from_arrays(X, y)
    cfg = _cfg(grid=(4, 7, 9), trials=1)
    report = run_trial(cfg, trial_seed=12, dataset=ds)
    recalls = [r for _, r in report.validation_trace]
    assert len(set(recalls)) == 1
    assert report.chosen == 4


def test_all_methods_run_end_to_end(small_ds):
    for method in harness.METHODS:
        cfg = _cfg(method=method, grid=None if method == "none" else (3, 5), trials=1)
        report = run_trial(cfg, trial_seed=6, dataset=small_ds)
        assert 0.0 <= report.recall <= 1.0
        assert 0.0 <= report.accuracy <= 1.0
        assert 0.0 <= report.f1 <= 1.0


@pytest.mark.parametrize("method", ["o2pf", "smote"])
def test_shared_train_block_matches_row_oracle(small_ds, monkeypatch, method):
    cfg = _cfg(method=method, grid=(3, 5), trials=1)
    kernel = classifier.pairwise_distances
    fits = []

    def spy(X, known=None):
        out = kernel(X, known=known)
        fits.append((X, known, out))
        return out

    monkeypatch.setattr(classifier, "pairwise_distances", spy)
    shared = run_trial(cfg, trial_seed=6, dataset=small_ds)
    # two grid fits and the winner's refit, each offered the same training block
    block = fits[0][1]
    assert block is not None and len(fits) == 3 and all(known is block for _, known, _ in fits)
    for X, _, out in fits:
        np.testing.assert_array_equal(out.view(np.uint64), pairwise_rows(X).view(np.uint64))
    monkeypatch.setattr(classifier, "pairwise_distances", lambda X, known=None: pairwise_rows(X))
    assert run_trial(cfg, trial_seed=6, dataset=small_ds) == shared


def test_splits_are_seed_paired_across_methods(small_ds, monkeypatch):
    recorded = []
    real_split = harness.split

    def spy(ds, spec):
        parts = real_split(ds, spec)
        recorded.append((spec.seed, tuple(p.features.tobytes() for p in parts)))
        return parts

    monkeypatch.setattr(harness, "split", spy)
    configs = [_cfg(method="o2pf", grid=(3,)), _cfg(method="smote", grid=(3,))]
    compare_methods(configs, dataset=small_ds)
    per_method = [recorded[: len(recorded) // 2], recorded[len(recorded) // 2 :]]
    assert per_method[0] == per_method[1]


class _Clock:
    def __init__(self):
        self.t = 0

    def tick(self):
        self.t += 1
        return self.t


class _TracingDataset:
    """Duck-typed stand-in that timestamps every data access."""

    def __init__(self, ds, clock):
        self._ds = ds
        self._clock = clock
        self.events = []

    def _touch(self):
        self.events.append(self._clock.tick())

    @property
    def features(self):
        self._touch()
        return self._ds.features

    @property
    def labels(self):
        self._touch()
        return self._ds.labels

    @property
    def minority_label(self):
        self._touch()
        return self._ds.minority_label

    def with_features(self, features):
        self._touch()
        return _TracingDataset(self._ds.with_features(features), self._clock)

    @property
    def feature_names(self):
        return self._ds.feature_names


def test_no_test_access_before_selection_completes(small_ds, monkeypatch):
    clock = _Clock()
    traced = []
    real_split = harness.split

    def split_spy(ds, spec):
        train, val, test = real_split(ds, spec)
        wrapper = _TracingDataset(test, clock)
        traced.append(wrapper)
        return train, val, wrapper

    selection_done = []
    real_select = harness.select_hyperparameter

    def select_spy(*args, **kwargs):
        out = real_select(*args, **kwargs)
        selection_done.append(clock.tick())
        return out

    monkeypatch.setattr(harness, "split", split_spy)
    monkeypatch.setattr(harness, "select_hyperparameter", select_spy)
    run_trial(_cfg(grid=(3, 6)), trial_seed=8, dataset=small_ds)
    assert len(traced) == 1 and len(selection_done) == 1
    assert traced[0].events, "the test partition must eventually be scored"
    assert min(traced[0].events) > selection_done[0]


def test_compare_methods_requires_shared_seeds(small_ds):
    with pytest.raises(ValueError, match="seed-paired"):
        compare_methods([_cfg(), _cfg(method="smote", base_seed=99)], dataset=small_ds)
    with pytest.raises(ValueError):
        compare_methods([], dataset=small_ds)


def test_compare_methods_rows_in_config_order(small_ds):
    configs = [
        _cfg(method="none", grid=None, trials=1),
        _cfg(method="smote", grid=(3,), trials=1),
        _cfg(method="o2pf", grid=(3,), trials=1),
    ]
    cmp = compare_methods(configs, dataset=small_ds)
    assert [r.method for r in cmp.rows] == ["none", "smote", "o2pf"]


def test_self_comparison_is_inconclusive_and_equivalent():
    vec = np.linspace(0.4, 0.9, 20)
    rows = significance_rows([("a", vec), ("b", vec.copy())])
    for row in rows:
        assert not row.conclusive or row.p_value == 1.0
        assert row.equivalent
        assert not row.significant


def test_disjoint_recall_distributions_are_significant():
    rng = np.random.default_rng(72)
    hi = 0.9 + rng.uniform(-0.02, 0.02, size=20)
    lo = 0.5 + rng.uniform(-0.02, 0.02, size=20)
    rows = significance_rows([("good", hi), ("bad", lo)])
    good, bad = rows
    assert good.is_best and good.equivalent
    assert bad.significant and not bad.equivalent
    assert bad.p_value < 0.05


def test_significance_rows_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        significance_rows([("a", np.zeros(5)), ("b", np.zeros(6))])


def test_report_emitters(small_ds, tmp_path):
    configs = [_cfg(method="none", grid=None), _cfg(method="smote", grid=(3,))]
    cmp = compare_methods(configs, dataset=small_ds)
    json.loads(comparison_to_json(cmp))
    text = render_comparison_text(cmp)
    assert "method" in text and "smote" in text
    csv_text = comparison_csv(cmp)
    assert csv_text.count("\n") == 3  # header + two methods
    for report in cmp.reports:
        json.loads(report_to_json(report))
        assert render_report_text(report).startswith("method ")
        assert trials_csv(report).splitlines()[0].startswith("trial,seed,chosen")
    paths = harness.write_comparison_files(cmp, tmp_path / "out")
    for p in paths:
        assert p.exists() and p.stat().st_size > 0
    none_csv = (tmp_path / "out" / "none_trials.csv").read_text()
    assert ",," in none_csv  # chosen column empty for method none


def test_unsplittable_dataset_fails_after_one_split_call(monkeypatch):
    calls = []
    real_split = harness.split

    def counted(ds, spec):
        calls.append(spec.seed)
        return real_split(ds, spec)

    monkeypatch.setattr(harness, "split", counted)
    # 12 rows: the validation and test partitions get one row each
    ds = Dataset.from_arrays(np.arange(24.0).reshape(12, 2), [0] * 6 + [1] * 6)
    with pytest.raises(harness.ExperimentError, match="no split can"):
        run_trial(_cfg(grid=(3,)), trial_seed=13, dataset=ds)
    assert calls == [13]
