import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opfsample import baselines, classifier, cli, harness, oversample_to_count
from opfsample.data import Dataset, split as data_split
from opfsample.errors import DataError, ExperimentError
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

from helpers import blob_dataset, pairwise_rows, reference_trial, write_dataset_csv


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
    train, _, _ = data_split(small_ds, 2)
    n_min = train.class_counts[train.minority_label]
    # ratio 0 leaves the training set unchanged; ratio 1 doubles the minority
    cfg = _cfg(trials=1, balance_mode="ratio", ratio=0.0)
    assert run_trial(cfg, trial_seed=2, dataset=small_ds).augmented_counts == train.class_counts
    cfg = _cfg(trials=1, balance_mode="ratio", ratio=1.0)
    counts = run_trial(cfg, trial_seed=2, dataset=small_ds).augmented_counts
    assert counts[small_ds.minority_label] == 2 * n_min


@pytest.mark.parametrize("method", ["o2pf", "smote"])
def test_training_rows_are_capped_before_any_work(small_ds, monkeypatch, method):
    train, _, _ = data_split(small_ds, 2)
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
    train, _, _ = data_split(small_ds, 2)
    assert report.augmented_counts == train.class_counts


@pytest.mark.parametrize("mode", [("balance_to_majority", 1.0), ("ratio", 1.0), ("ratio", 1e308)])
def test_method_none_synthesizes_nothing(small_ds, mode):
    train, _, _ = data_split(small_ds, 2)
    balance_mode, ratio = mode
    aug = _TrialAugmenter(train, _cfg(method="none", grid=None, balance_mode=balance_mode,
                                      ratio=ratio), 2)
    assert aug.n_new == 0 and aug.grid == ()
    assert aug.augment(None) is train


def test_grid_clamped_to_minority_count(small_ds):
    cfg = _cfg(grid=(5, 10, 50, 80))
    train, _, _ = data_split(small_ds, 4)
    aug = _TrialAugmenter(train, cfg, trial_seed=4)
    grid = aug.grid
    n_min = train.class_counts[train.minority_label]
    assert max(grid) == n_min - 1
    assert grid == tuple(sorted(set(grid)))


def test_o2pf_augmenter_matches_oversample_to_count(small_ds):
    cfg = _cfg(grid=(2, 4, 8))
    train, _, _ = data_split(small_ds, 9)
    aug = _TrialAugmenter(train, cfg, trial_seed=9)
    for g in aug.grid:
        expected = oversample_to_count(train, aug.n_new, g, derive_seed(9, g))
        got = aug.augment(g)
        np.testing.assert_array_equal(got.features, expected.features)
        np.testing.assert_array_equal(got.labels, expected.labels)


def test_validation_tie_chooses_smallest_grid_value():
    cfg = _cfg(grid=(4, 7, 9), trials=1)
    report = run_trial(cfg, trial_seed=12, dataset=_balanced_tie_dataset())
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
    # one fit per grid value, each offered the same training block
    block = fits[0][1]
    assert block is not None and len(fits) == 2 and all(known is block for _, known, _ in fits)
    for X, _, out in fits:
        np.testing.assert_array_equal(out.view(np.uint64), pairwise_rows(X).view(np.uint64))
    monkeypatch.setattr(classifier, "pairwise_distances", lambda X, known=None: pairwise_rows(X))
    assert run_trial(cfg, trial_seed=6, dataset=small_ds) == shared


def _balanced_tie_dataset():
    # a perfectly balanced dataset in balance mode needs no synthesis, so every
    # grid value trains on the same set and ties on validation recall
    rng = np.random.default_rng(73)
    X = np.vstack([rng.normal(size=(40, 3)), rng.normal(size=(40, 3)) + 2.0])
    y = np.r_[np.zeros(40, dtype=int), np.ones(40, dtype=int)]
    return Dataset.from_arrays(X, y)


@pytest.mark.parametrize("method", harness.METHODS)
def test_each_grid_value_is_trained_once_and_the_winner_scores_test(small_ds, monkeypatch, method):
    fits, probes = [], []
    real_fit, real_predict = classifier.OpfClassifier.fit, classifier.OpfClassifier.predict_batch

    def fit_spy(self, *args, **kwargs):
        fits.append(self)
        return real_fit(self, *args, **kwargs)

    def predict_spy(self, *args, **kwargs):
        probes.append(self)
        return real_predict(self, *args, **kwargs)

    monkeypatch.setattr(classifier.OpfClassifier, "fit", fit_spy)
    monkeypatch.setattr(classifier.OpfClassifier, "predict_batch", predict_spy)
    cases = [(small_ds, (3, 5, 8))]
    if method != "none":
        cases.append((_balanced_tie_dataset(), (4, 7, 9)))
    for ds, grid in cases:
        fits.clear()
        probes.clear()
        cfg = _cfg(method=method, grid=None if method == "none" else grid, trials=1)
        report = run_trial(cfg, trial_seed=6, dataset=ds)
        n = len(report.validation_trace)
        assert len(fits) == max(n, 1) and len(probes) == n + 1
        assert probes[:n] == fits[:n]  # each grid value's model scores validation
        winner = 0 if method == "none" else grid.index(report.chosen)
        assert probes[-1] is fits[winner]
    if method != "none":  # the last case tied on every grid value
        assert report.chosen == 4


def _rounded_blobs():
    # at trial seed 3 the least cut moves twice between k = 1 and k = 15
    X, y = blob_dataset(np.random.default_rng(60), n_maj=60, n_min=30, m=3, sep=2.0)
    return Dataset.from_arrays(np.round(X, 1), y)


@pytest.mark.parametrize("method", ["o2pf", "smote", "borderline_smote", "adasyn"])
def test_each_trial_computes_its_shared_pieces_once(monkeypatch, method):
    ds = _rounded_blobs()
    grid = tuple(range(1, 16)) if method == "o2pf" else tuple(range(1, 10))
    train, val, _ = data_split(ds, 3)
    calls = {}

    def count(module, name):
        real = getattr(module, name)
        key = f"{module.__name__}.{name}"
        calls[key] = []

        def spy(*args, **kwargs):
            out = real(*args, **kwargs)
            calls[key].append((args, out))
            return out

        monkeypatch.setattr(module, name, spy)

    for module, name in ((baselines, "_row_distances"), (baselines, "_neighbor_table"),
                         (classifier, "_row_distances"),
                         (harness, "sweep_normalized_cuts"), (harness, "gaussians_from_forest"),
                         (np.linalg, "eigh")):
        count(module, name)
    report = run_trial(_cfg(method=method, grid=grid, trials=1), trial_seed=3, dataset=ds)
    assert [g for g, _ in report.validation_trace] == list(grid)
    # one validation x training block, a row per validation probe, then, for
    # the samplers that read it, one minority x all block, a row per minority
    # row; each grid value's validation probes scan only the synthetic rows
    block_rows = [args[0].shape[0] for args, _ in calls["opfsample.baselines._row_distances"]]
    n_block = train.minority_count if method in ("borderline_smote", "adasyn") else 0
    assert block_rows == [train.n_samples] * (val.n_samples + n_block)
    n_new = sum(report.augmented_counts) - train.n_samples
    scanned = [args[0].shape[0] for args, _ in calls["opfsample.classifier._row_distances"]]
    assert scanned[:len(grid) * val.n_samples] == [n_new] * (len(grid) * val.n_samples)
    # SMOTE sorts its minority order once; no sampler sorts one of its own
    assert len(calls["opfsample.baselines._neighbor_table"]) == (method == "smote")
    # one set of Gaussians per selected forest, one eigendecomposition per Gaussian
    fitted = calls["opfsample.harness.gaussians_from_forest"]
    if method == "o2pf":
        ((_, (cuts, forests)),) = calls["opfsample.harness.sweep_normalized_cuts"]
        selected = sorted({harness._least_cut(cuts[:g]) for g in grid})
        assert len(selected) == 3
        assert [id(args[1]) for args, _ in fitted] == [id(forests[k]) for k in selected]
        assert len(calls["numpy.linalg.eigh"]) == sum(len(out) for _, out in fitted)
    else:
        assert fitted == [] and calls["numpy.linalg.eigh"] == []


@pytest.mark.parametrize("method", harness.METHODS)
def test_run_trial_matches_from_scratch_reference(method):
    # features rounded to one decimal, so distances and validation recalls tie often
    for seed in range(6):
        balance = dict(balance_mode="ratio", ratio=0.5) if seed % 3 == 2 else {}
        X, y = blob_dataset(np.random.default_rng(90 + seed), n_maj=45, n_min=18, m=3, sep=1.5)
        ds = Dataset.from_arrays(np.round(X, 1), y)
        grid = None if method == "none" else (2, 4, 6, 30)
        cfg = _cfg(method=method, grid=grid, trials=1, **balance)
        assert run_trial(cfg, seed, dataset=ds) == reference_trial(cfg, ds, seed)


@st.composite
def _trial_inputs(draw):
    """A small dataset, a grid, a balance mode and a split seed.

    Features sit on an integer grid, so distances tie, and some rows are
    repeated. The minority class forms up to four sub-clusters inside the
    majority: in two dimensions, where ties are common, or in nine, shaped
    like the Diagnostic II set, where the least cut often falls past k = 1
    and a cut just above zero comes before the first zero. A few cells are
    missing, and grid values above the training minority count collapse
    when clamped.
    """
    m = draw(st.sampled_from((2, 9, 9)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if m == 2:
        n_min = int(rng.integers(12, 41))
        centers = rng.integers(0, 9, (draw(st.integers(1, 4)), m))
        member = rng.choice(len(centers), n_min, p=rng.dirichlet(np.ones(len(centers))))
    else:
        n_min = int(rng.integers(40, 81))
        centers = rng.uniform(4.0, 9.0, (4, m))
        member = rng.choice(4, n_min, p=(0.4, 0.3, 0.2, 0.1))
    minority = centers[member] + rng.normal(0.0, 0.8, (n_min, m))
    n_maj = n_min + int(rng.integers(10, 61))
    X = np.round(np.vstack([rng.normal(centers.mean(axis=0), 1.5, (n_maj, m)), minority]))
    y = np.r_[np.zeros(n_maj, dtype=int), np.ones(n_min, dtype=int)]
    repeats = rng.integers(0, len(y), draw(st.integers(0, 6)))
    X, y = np.vstack([X, X[repeats]]), np.r_[y, y[repeats]]
    X[rng.integers(0, len(y), draw(st.integers(0, 3))), rng.integers(0, m)] = np.nan
    perm = rng.permutation(len(y))
    balance = draw(st.sampled_from([{}, *({"balance_mode": "ratio", "ratio": r}
                                          for r in (0.0, 0.5, 1.0, 1.7))]))
    grid = tuple(int(g) for g in rng.integers(1, 41, draw(st.integers(1, 4))))
    return Dataset.from_arrays(X[perm], y[perm]), grid, balance, draw(st.integers(0, 10_000))


@pytest.mark.parametrize("method", harness.METHODS)
@settings(max_examples=60, derandomize=True)
@given(inputs=_trial_inputs())
def test_run_trial_matches_reference_on_generated_inputs(method, inputs):
    ds, grid, balance, seed = inputs
    cfg = _cfg(method=method, grid=None if method == "none" else grid, trials=1, **balance)
    assert run_trial(cfg, seed, dataset=ds) == reference_trial(cfg, ds, seed)


def test_compare_report_bytes_match_the_oracle(tmp_path, monkeypatch, capsys):
    # Every method, two trials, a few missing cells, and ties from one-decimal
    # features. The minority class has three sub-clusters, so the sweep's
    # least cut can fall past k = 1 and o2pf's grid values pick different forests.
    X, y = blob_dataset(np.random.default_rng(233), n_maj=60, n_min=40, m=3, sep=1.5)
    minority = np.flatnonzero(y == 1)
    X[minority[::4], 1] += 3
    X[minority[1::4], 2] += 3
    X[minority[2::4], 1] -= 3
    csv_path = write_dataset_csv(tmp_path / "toy.csv", np.round(X, 1), y,
                                 missing_cells=[(0, 1), (7, 2), (30, 0)])

    def compare(out_dir):
        argv = ["compare", "--data", str(csv_path), "--trials", "2", "--seed", "3",
                "--grid", "2:10", "--out-dir", str(tmp_path / out_dir)]
        assert cli.main(argv) == 0
        return capsys.readouterr().out

    stdout = compare("run")
    oracle_calls = []

    def oracle(cfg, seed, *, trial, dataset):
        oracle_calls.append((cfg.method, trial))
        return reference_trial(cfg, dataset, seed, trial)

    monkeypatch.setattr(harness, "run_trial", oracle)
    assert compare("oracle") == stdout
    assert len(oracle_calls) == 2 * len(harness.METHODS)
    written = sorted(path.name for path in (tmp_path / "run").iterdir())
    assert len(written) == 2 + 3 * len(harness.METHODS)
    for name in written:
        expected = (tmp_path / "run" / name).read_bytes()
        assert (tmp_path / "oracle" / name).read_bytes() == expected, name


def _huge_cell_dataset(partition: int, trial_seed: int, scale: float, value: float):
    """A dataset with ``value`` in column f1 of the last row of ``partition``.

    The rest of column f1 is multiplied by ``scale``. Returns the dataset
    and that row's number within the partition.
    """
    X, y = blob_dataset(np.random.default_rng(74), n_maj=60, n_min=24, m=2, sep=2.0)
    X[:, 1] *= scale
    # the split depends only on the labels, so a row-number column shows where rows land
    tagged = Dataset.from_arrays(np.c_[X, np.arange(len(y))], y)
    part = data_split(tagged, trial_seed)[partition]
    X[int(part.features[-1, -1]), 1] = value
    return Dataset.from_arrays(X, y), part.n_samples


# (1e-3, 1e307): the standardized cell overflows; (1, 1e300): it is finite,
# but its square, and so every distance to it, overflows
@pytest.mark.parametrize("scale, value", [(1e-3, 1e307), (1.0, 1e300)])
@pytest.mark.parametrize("partition, name", [(1, "validation"), (2, "test")])
def test_overflowing_standardized_cell_is_a_data_error(monkeypatch, partition, name, scale, value):
    ds, row = _huge_cell_dataset(partition, 3, scale, value)
    selected = []
    real_select = harness.select_hyperparameter

    def select_spy(*args):
        selected.append(True)
        return real_select(*args)

    monkeypatch.setattr(harness, "select_hyperparameter", select_spy)
    with pytest.raises(DataError, match=f"{name} partition row {row}, column 'f1'"):
        run_trial(_cfg(grid=(3,), trials=1), trial_seed=3, dataset=ds)
    # the test partition is checked only once the winner is fixed
    assert selected == ([True] if name == "test" else [])


def test_splits_are_seed_paired_across_methods(small_ds, monkeypatch):
    recorded = []
    real_split = harness.split

    def spy(ds, seed):
        parts = real_split(ds, seed)
        recorded.append((seed, tuple(p.features.tobytes() for p in parts)))
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

    def split_spy(ds, seed):
        train, val, test = real_split(ds, seed)
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

    def counted(ds, seed):
        calls.append(seed)
        return real_split(ds, seed)

    monkeypatch.setattr(harness, "split", counted)
    # 12 rows: the validation and test partitions get one row each
    ds = Dataset.from_arrays(np.arange(24.0).reshape(12, 2), [0] * 6 + [1] * 6)
    with pytest.raises(harness.ExperimentError, match="no split can"):
        run_trial(_cfg(grid=(3,)), trial_seed=13, dataset=ds)
    assert calls == [13]
