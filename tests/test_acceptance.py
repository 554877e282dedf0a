"""Acceptance gate: one test per release criterion, each timed where required.

Criterion 5 exercises three reference UCI datasets that ship separately from
this repository (see README, "Benchmark datasets"): place the prepared CSVs
under ``data/`` or point ``OPFSAMPLE_DATA`` at them. Without the files the
criterion is skipped with instructions; everything else runs self-contained.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from opfsample import harness
from opfsample.baselines import NeighborConfig, adasyn, borderline_danger_mask, borderline_smote, smote
from opfsample.classifier import OpfClassifier
from opfsample.cluster import build_knn_graph, cluster_ift, compute_density
from opfsample.data import Dataset, load_csv
from opfsample.harness import ExperimentConfig, compare_methods, report_to_json, run_experiment, run_trial
from opfsample.metrics import wilcoxon_signed_rank
from opfsample.oversample import ClusterGaussian, largest_remainder, synthesize

from helpers import (
    blob_dataset,
    cluster_cost_closure,
    on_segment_between,
    predict_full_scan,
    two_pass_covariance,
    wilcoxon_oracle,
)

DATA_ENV = "OPFSAMPLE_DATA"
DATASET_FILES = {
    "prognostic": "wbcd_prognostic.csv",
    "diagnostic2": "wbcd_diagnostic2.csv",
    "cervical": "cervical_cancer.csv",
}


def _dataset_path(key: str) -> Path:
    root = Path(os.environ.get(DATA_ENV, Path(__file__).resolve().parent.parent / "data"))
    path = root / DATASET_FILES[key]
    if not path.exists():
        pytest.skip(
            f"benchmark dataset {path} not found; prepare it with "
            f"demos/prepare_uci.py or set ${DATA_ENV} (see README)"
        )
    return path


@pytest.mark.acceptance(label="criterion 1: clustering cost map equals exhaustive path maximization")
def test_criterion_1_clustering_oracle_equivalence():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    for _ in range(200):
        n = int(rng.integers(4, 11))
        m = int(rng.integers(1, 4))
        k = int(rng.integers(1, min(4, n)))
        X = rng.normal(size=(n, m))
        g = build_knn_graph(X, k)
        dm = compute_density(g)
        forest = cluster_ift(g, dm)
        oracle = cluster_cost_closure(g.neighbors, dm.rho, dm.delta, forest.roots)
        np.testing.assert_allclose(forest.cost, oracle, atol=1e-9, rtol=0)
    assert time.perf_counter() - start < 10.0


@pytest.mark.acceptance(label="criterion 2: classifier prediction equals brute-force evaluation")
def test_criterion_2_classifier_oracle_equivalence():
    rng = np.random.default_rng(1002)
    start = time.perf_counter()
    for _ in range(200):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 4))
        X = rng.normal(size=(n, m))
        y = rng.integers(0, 2, size=n)
        y[0] = 0
        y[-1] = 1
        model = OpfClassifier().fit(X, y)
        # continuous draws: no duplicate point spans classes, so training
        # predictions must be perfect
        np.testing.assert_array_equal(model.predict_batch(X), y)
        probes = rng.normal(size=(30, m)) * 1.5
        expected = [predict_full_scan(X, model.cost_, model.assigned_label_, p) for p in probes]
        got = [model.predict(p) for p in probes]
        assert got == expected
        np.testing.assert_array_equal(model.predict_batch(probes), expected)
    assert time.perf_counter() - start < 10.0


@pytest.mark.acceptance(label="criterion 3: Gaussian sampler statistics at 10^4 draws")
def test_criterion_3_sampler_statistics():
    start = time.perf_counter()
    A = np.array([[1.2, 0.3, 0.0], [-0.4, 0.9, 0.2], [0.1, 0.0, 1.5]])
    cov = A @ A.T
    mu = np.array([2.0, -1.0, 0.5])
    cg = ClusterGaussian(mu, cov, np.arange(7))
    draws = synthesize(cg, 10_000, seed=2024)
    sigma = np.sqrt(np.diag(cov))
    assert (np.abs(draws.mean(axis=0) - mu) < 5 * sigma / 100).all()
    emp = two_pass_covariance(draws)
    assert np.abs(emp - cov).max() < 0.1
    degenerate = ClusterGaussian(mu, np.zeros((3, 3)), np.arange(2))
    copies = synthesize(degenerate, 100, seed=7)
    np.testing.assert_array_equal(copies, np.tile(mu, (100, 1)))
    assert time.perf_counter() - start < 5.0


@pytest.mark.acceptance(label="criterion 4: exact Wilcoxon p-values vs 2^n enumeration")
def test_criterion_4_wilcoxon_exactness():
    rng = np.random.default_rng(1004)
    start = time.perf_counter()
    for n in range(5, 13):
        for trial in range(3):
            if trial == 0:
                a = rng.normal(size=n)  # continuous, tie-free
            else:
                a = rng.integers(-3, 4, size=n).astype(float)  # forces rank ties
            b = np.zeros(n)
            if np.count_nonzero(a) < 5:
                continue
            res = wilcoxon_signed_rank(a, b)
            w, p = wilcoxon_oracle(a, b)
            assert res.statistic == w
            assert abs(res.p_value - p) < 1e-12
    all_pos = wilcoxon_signed_rank(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), np.zeros(5))
    assert all_pos.statistic == 0.0
    assert all_pos.p_value == 0.0625
    assert time.perf_counter() - start < 5.0


@pytest.mark.acceptance(label="criterion 5a: Diagnostic II recall band")
def test_criterion_5a_diagnostic2_recall_band():
    path = _dataset_path("diagnostic2")
    start = time.perf_counter()
    cfg = ExperimentConfig(data_path=str(path), method="o2pf", trials=20, base_seed=0)
    report = run_experiment(cfg)
    mean_recall = report.summary()["recall_mean"]
    assert 0.86 <= mean_recall <= 0.96, f"mean recall {mean_recall:.4f} outside band"
    assert time.perf_counter() - start < 900.0


@pytest.mark.acceptance(label="criterion 5b: Prognostic oversampling beats the original")
def test_criterion_5b_prognostic_improvement():
    path = _dataset_path("prognostic")
    ds = load_csv(path)
    assert ds.n_samples == 198
    assert ds.minority_count == 47
    start = time.perf_counter()
    configs = [
        ExperimentConfig(data_path=str(path), method="o2pf", trials=20, base_seed=0),
        ExperimentConfig(data_path=str(path), method="none", trials=20, base_seed=0),
    ]
    cmp = compare_methods(configs, dataset=ds)
    o2pf_mean = cmp.reports[0].summary()["recall_mean"]
    none_mean = cmp.reports[1].summary()["recall_mean"]
    assert o2pf_mean > none_mean
    assert abs(o2pf_mean - 0.5739) <= 0.08, f"oversampled recall {o2pf_mean:.4f}"
    assert abs(none_mean - 0.4945) <= 0.08, f"original recall {none_mean:.4f}"
    assert time.perf_counter() - start < 900.0


@pytest.mark.acceptance(label="criterion 5c: Cervical Cancer high-accuracy/low-recall regime")
def test_criterion_5c_cervical_regime():
    path = _dataset_path("cervical")
    start = time.perf_counter()
    configs = [
        ExperimentConfig(data_path=str(path), method=m, trials=20, base_seed=0)
        for m in harness.METHODS
    ]
    cmp = compare_methods(configs)
    for report in cmp.reports:
        s = report.summary()
        assert s["accuracy_mean"] >= 0.90, f"{report.config.method}: {s['accuracy_mean']:.4f}"
        assert s["recall_mean"] <= 0.75, f"{report.config.method}: {s['recall_mean']:.4f}"
    assert time.perf_counter() - start < 900.0


@pytest.mark.acceptance(label="criterion 6: pipeline hygiene (pairing, determinism, balance, no leakage)")
def test_criterion_6_pipeline_hygiene(monkeypatch):
    X, y = blob_dataset(np.random.default_rng(1006), n_maj=60, n_min=24, m=3, sep=2.0)
    ds = Dataset.from_arrays(X, y)
    base = dict(data_path="synthetic", trials=3, base_seed=17)

    # seed-paired splits across methods
    recorded = []
    real_split = harness.split

    def split_spy(d, seed):
        parts = real_split(d, seed)
        recorded.append((seed, tuple(p.features.tobytes() for p in parts)))
        return parts

    monkeypatch.setattr(harness, "split", split_spy)
    cmp = compare_methods(
        [
            ExperimentConfig(method="o2pf", grid=(3, 6), **base),
            ExperimentConfig(method="smote", grid=(3, 6), **base),
        ],
        dataset=ds,
    )
    half = len(recorded) // 2
    assert recorded[:half] == recorded[half:]
    monkeypatch.setattr(harness, "split", real_split)

    # byte-identical reports on rerun with the same base seed
    cfg = ExperimentConfig(method="o2pf", grid=(3, 6), **base)
    assert report_to_json(run_experiment(cfg, dataset=ds)) == report_to_json(
        run_experiment(cfg, dataset=ds)
    )

    # balance mode leaves class counts within one of each other
    for report in cmp.reports:
        for t in report.trials:
            assert abs(t.augmented_counts[0] - t.augmented_counts[1]) <= 1

    # no operation reads test rows before hyperparameter selection completes
    clock = {"t": 0}

    def tick():
        clock["t"] += 1
        return clock["t"]

    class TracingDataset:
        def __init__(self, inner):
            self._inner = inner
            self.events = []

        def __getattr__(self, name):
            value = getattr(self._inner, name)
            if name in ("features", "labels", "minority_label"):
                self.events.append(tick())
            return value

        def with_features(self, features):
            self.events.append(tick())
            return self._inner.with_features(features)

    traced = []

    def split_tracer(d, seed):
        train, val, test = real_split(d, seed)
        wrapper = TracingDataset(test)
        traced.append(wrapper)
        return train, val, wrapper

    selection_done = []
    real_select = harness.select_hyperparameter

    def select_spy(*args, **kwargs):
        out = real_select(*args, **kwargs)
        selection_done.append(tick())
        return out

    monkeypatch.setattr(harness, "split", split_tracer)
    monkeypatch.setattr(harness, "select_hyperparameter", select_spy)
    run_trial(cfg, trial_seed=23, dataset=ds)
    assert traced[0].events, "the test partition must be read for final scoring"
    assert min(traced[0].events) > selection_done[0]


@pytest.mark.acceptance(label="criterion 7: SMOTE-family geometry and allocations")
def test_criterion_7_smote_family_geometry():
    rng = np.random.default_rng(1007)
    minority = rng.normal(size=(10, 3))
    majority = rng.normal(size=(18, 3)) + 1.2
    X = np.vstack([minority, majority])
    y = np.array([1] * 10 + [0] * 18)

    batches = [smote(minority, 40_000, NeighborConfig(kappa=3, seed=s)) for s in (1, 2)]
    batches.append(borderline_smote(X, y, 30_000, NeighborConfig(kappa=3, seed=3), minority_label=1))
    batches.append(adasyn(X, y, NeighborConfig(kappa=3, seed=4), 30_000, minority_label=1))
    total = 0
    for batch in batches:
        assert on_segment_between(batch, minority, tol=1e-9).all()
        total += len(batch)
    assert total >= 100_000

    # Borderline fixture: exactly one danger point seeds everything
    bl_minority = np.array([[4.5, 1.0], [5.0, 0.0], [5.1, 0.0], [4.9, 0.0], [10.0, 10.0]])
    bl_majority = np.array([[4.5, 2.0], [10.1, 10.0], [9.9, 10.0]])
    bl_X = np.vstack([bl_minority, bl_majority])
    bl_y = np.array([1, 1, 1, 1, 1, 0, 0, 0])
    mask = borderline_danger_mask(bl_X, bl_y, NeighborConfig(kappa=2, seed=0), minority_label=1)
    np.testing.assert_array_equal(mask, [True, False, False, False, False])
    out = borderline_smote(bl_X, bl_y, 500, NeighborConfig(kappa=2, seed=5), minority_label=1)
    a = bl_minority[0]
    ok = on_segment_between(out, np.vstack([a, bl_minority[3]])) | on_segment_between(
        out, np.vstack([a, bl_minority[1]])
    )
    assert ok.all()

    # ADASYN allocations: weight concentration and the documented normalization
    ada_X = np.array([[0.0], [1.0], [2.1]])
    ada_y = np.array([0, 1, 1])
    from opfsample.baselines import adasyn_allocation

    np.testing.assert_array_equal(
        adasyn_allocation(ada_X, ada_y, NeighborConfig(kappa=1, seed=6), 6, minority_label=1),
        [6, 0],
    )
    r = np.array([2 / 5, 1 / 5, 2 / 5])
    np.testing.assert_array_equal(largest_remainder(r / r.sum() * 5, 5), [2, 1, 2])
