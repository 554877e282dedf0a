import numpy as np
import pytest

from opfsample import baselines
from opfsample.baselines import (
    NeighborConfig,
    _majority_neighbor_counts,
    _neighbor_table,
    adasyn,
    adasyn_allocation,
    borderline_danger_mask,
    borderline_smote,
    neighbor_orders,
    smote,
)
from opfsample.cluster import _neighbor_order
from opfsample.oversample import largest_remainder

from helpers import blob_dataset, brute_force_knn, on_segment_between, pairwise_rows


def test_smote_two_points_stay_on_segment():
    p = np.array([0.0, 0.0])
    q = np.array([2.0, 1.0])
    out = smote(np.vstack([p, q]), 200, NeighborConfig(kappa=1, seed=1))
    assert out.shape == (200, 2)
    assert on_segment_between(out, np.vstack([p, q])).all()


def test_smote_zero_request_empty():
    out = smote(np.zeros((3, 2)), 0, NeighborConfig(kappa=1, seed=1))
    assert out.shape == (0, 2)


def test_zero_request_still_checks_inputs():
    # every sampler validates before it looks at n_new
    X = np.array([[0.0], [1.0], [2.0], [9.0]])
    y = np.array([1, 1, 0, 0])
    bad = NeighborConfig(kappa=2, seed=1)  # two minority samples allow kappa = 1 only
    for call in (
        lambda: smote(X[:2], 0, bad),
        lambda: borderline_smote(X, y, 0, bad, minority_label=1),
        lambda: adasyn(X, y, bad, 0, minority_label=1),
        lambda: adasyn_allocation(X, y, NeighborConfig(kappa=1), -1, minority_label=1),
    ):
        with pytest.raises(ValueError):
            call()
    ok = NeighborConfig(kappa=1, seed=1)
    assert borderline_smote(X, y, 0, ok, minority_label=1).shape == (0, 1)
    assert adasyn(X, y, ok, 0, minority_label=1).shape == (0, 1)


def test_smote_needs_two_minority_samples():
    with pytest.raises(ValueError, match="need at least two minority samples"):
        smote(np.zeros((1, 2)), 3, NeighborConfig(kappa=1, seed=1))


def test_smote_containment_2d_fixture():
    rng = np.random.default_rng(61)
    X = rng.normal(size=(9, 2))
    out = smote(X, 500, NeighborConfig(kappa=3, seed=2))
    assert out.shape == (500, 2)
    assert on_segment_between(out, X).all()


def test_smote_deterministic_and_kappa_range():
    X = np.random.default_rng(62).normal(size=(6, 2))
    a = smote(X, 40, NeighborConfig(kappa=2, seed=3))
    b = smote(X, 40, NeighborConfig(kappa=2, seed=3))
    np.testing.assert_array_equal(a, b)
    with pytest.raises(ValueError, match="kappa"):
        smote(X, 10, NeighborConfig(kappa=6, seed=3))
    with pytest.raises(ValueError):
        NeighborConfig(kappa=0, seed=3)


def test_neighbor_config_takes_only_integer_kappa():
    for kappa in (2.5, 2.0, "2", None):
        with pytest.raises(ValueError, match="kappa must be a positive integer"):
            NeighborConfig(kappa)
    X = np.random.default_rng(62).normal(size=(6, 2))
    for kappa in (2, np.int64(2), np.int32(2)):
        assert smote(X, 4, NeighborConfig(kappa, seed=3)).shape == (4, 2)


# 8-point borderline fixture, kappa=2. Minority rows in order:
#   A danger (neighbors: one majority, one minority)
#   B, C, D safe (pure minority neighborhoods)
#   E noise (pure majority neighborhood)
_BL_MINORITY = np.array(
    [[4.5, 1.0], [5.0, 0.0], [5.1, 0.0], [4.9, 0.0], [10.0, 10.0]]
)
_BL_MAJORITY = np.array([[4.5, 2.0], [10.1, 10.0], [9.9, 10.0]])
_BL_X = np.vstack([_BL_MINORITY, _BL_MAJORITY])
_BL_Y = np.array([1, 1, 1, 1, 1, 0, 0, 0])


def test_majority_neighbor_counts_match_brute_force():
    X, y = blob_dataset(np.random.default_rng(63), n_maj=30, n_min=12, m=3, sep=1.0)
    minority = np.flatnonzero(y == 1)
    for kappa in (1, 3, 7):
        idx, counts, minority_dist = _majority_neighbor_counts(X, y, 1, kappa)
        knn = brute_force_knn(X, kappa)
        np.testing.assert_array_equal(idx, minority)
        assert counts.dtype == np.int64
        assert counts.tolist() == [sum(int(y[j] != 1) for j in knn[i]) for i in minority]
        np.testing.assert_array_equal(minority_dist, pairwise_rows(X)[np.ix_(minority, minority)])


def test_minority_block_orders_like_the_minority_neighbor_table():
    # integer cells, so many distances tie and the order rests on the index
    rng = np.random.default_rng(64)
    X = rng.integers(0, 4, size=(40, 3)).astype(np.float64)
    y = np.zeros(40, dtype=np.int64)
    y[rng.choice(40, size=14, replace=False)] = 1
    minority = np.flatnonzero(y == 1)
    n_min = minority.size
    for k in (1, 5, n_min - 1):
        minority_dist = _majority_neighbor_counts(X, y, 1, k)[2]
        np.testing.assert_array_equal(
            _neighbor_order(minority_dist)[:, :k], _neighbor_table(X[minority], k)
        )


@pytest.mark.parametrize("sampler", ["borderline_smote", "adasyn"])
def test_each_sampler_call_makes_one_distance_pass(monkeypatch, sampler):
    X, y = blob_dataset(np.random.default_rng(65), n_maj=30, n_min=12, m=3, sep=1.0)
    passes, rows = [], []
    row_distances, pairwise = baselines._row_distances, baselines.pairwise_distances

    def counted_rows(A, x):
        rows.append(A.shape[0])
        return row_distances(A, x)

    def counted_pass(*args, **kwargs):
        passes.append("pairwise")
        return pairwise(*args, **kwargs)

    def no_fallback(*args, **kwargs):
        raise AssertionError(f"{sampler} fell back to SMOTE")

    monkeypatch.setattr(baselines, "_row_distances", counted_rows)
    monkeypatch.setattr(baselines, "pairwise_distances", counted_pass)
    monkeypatch.setattr(baselines, "smote", no_fallback)
    cfg = NeighborConfig(kappa=3, seed=1)
    out = (borderline_smote(X, y, 20, cfg, minority_label=1) if sampler == "borderline_smote"
           else adasyn(X, y, cfg, 20, minority_label=1))
    assert out.shape == (20, 3)
    # one block: each minority row against every row, and no second pass
    assert passes == [] and rows == [X.shape[0]] * 12


def test_borderline_danger_classification():
    mask = borderline_danger_mask(_BL_X, _BL_Y, NeighborConfig(kappa=2, seed=0), minority_label=1)
    np.testing.assert_array_equal(mask, [True, False, False, False, False])


def test_borderline_noise_point_never_seeds():
    # E's two neighbors are both majority: NOISE by definition
    mask = borderline_danger_mask(_BL_X, _BL_Y, NeighborConfig(kappa=2, seed=0), minority_label=1)
    assert not mask[4]


def test_borderline_safe_point_never_seeds():
    mask = borderline_danger_mask(_BL_X, _BL_Y, NeighborConfig(kappa=2, seed=0), minority_label=1)
    assert not mask[1] and not mask[2] and not mask[3]


def test_borderline_synthetics_emanate_from_the_danger_point():
    cfg = NeighborConfig(kappa=2, seed=4)
    out = borderline_smote(_BL_X, _BL_Y, 300, cfg, minority_label=1)
    assert out.shape == (300, 2)
    # A's two nearest minority neighbors are D and B: all synthetics lie on
    # a segment from A toward one of them
    a = _BL_MINORITY[0]
    anchors_ad = np.vstack([a, _BL_MINORITY[3]])
    anchors_ab = np.vstack([a, _BL_MINORITY[1]])
    ok = on_segment_between(out, anchors_ad) | on_segment_between(out, anchors_ab)
    assert ok.all()


def test_borderline_empty_danger_falls_back_to_smote(caplog):
    rng = np.random.default_rng(63)
    minority = rng.normal(size=(6, 2)) * 0.1
    majority = rng.normal(size=(4, 2)) * 0.1 + 50.0
    X = np.vstack([minority, majority])
    y = np.array([1] * 6 + [0] * 4)
    cfg = NeighborConfig(kappa=2, seed=5)
    with caplog.at_level("INFO"):
        out = borderline_smote(X, y, 25, cfg, minority_label=1)
    assert "falling back" in caplog.text
    np.testing.assert_array_equal(out, smote(minority, 25, cfg))


def test_adasyn_weight_concentration():
    # r = (1, 0): x1 sits next to a majority point, x2 next to x1
    X = np.array([[0.0], [1.0], [2.1]])
    y = np.array([0, 1, 1])
    cfg = NeighborConfig(kappa=1, seed=6)
    counts = adasyn_allocation(X, y, cfg, 6, minority_label=1)
    np.testing.assert_array_equal(counts, [6, 0])
    out = adasyn(X, y, cfg, 6, minority_label=1)
    assert out.shape == (6, 1)
    # every synthetic interpolates x1 toward its only minority neighbor x2
    assert on_segment_between(out, np.array([[1.0], [2.1]])).all()


def test_adasyn_uniform_weights_split_proportionally():
    # every minority point fully surrounded by majority: equal weights
    sites = [0.0, 50.0, 100.0]
    minority = np.array([[s, 0.05] for s in sites])
    majority = np.array([[s + dx, 0.0] for s in sites for dx in (-0.1, 0.1)])
    X = np.vstack([minority, majority])
    y = np.array([1] * 3 + [0] * 6)
    counts = adasyn_allocation(X, y, NeighborConfig(kappa=2, seed=7), 6, minority_label=1)
    np.testing.assert_array_equal(counts, [2, 2, 2])


def test_adasyn_normalization_arithmetic():
    # the documented r = (2/5, 1/5, 2/5), n_new = 5 case, at the allocation level
    r = np.array([2 / 5, 1 / 5, 2 / 5])
    counts = largest_remainder(r / r.sum() * 5, 5)
    np.testing.assert_array_equal(counts, [2, 1, 2])


def test_adasyn_zero_weights_fall_back_to_smote(caplog):
    rng = np.random.default_rng(64)
    minority = rng.normal(size=(5, 2)) * 0.1
    majority = rng.normal(size=(4, 2)) * 0.1 + 50.0
    X = np.vstack([minority, majority])
    y = np.array([1] * 5 + [0] * 4)
    cfg = NeighborConfig(kappa=2, seed=8)
    with caplog.at_level("INFO"):
        out = adasyn(X, y, cfg, 30, minority_label=1)
    assert "falling back" in caplog.text
    np.testing.assert_array_equal(out, smote(minority, 30, cfg))


def test_all_methods_emit_exact_counts_and_are_deterministic():
    rng = np.random.default_rng(65)
    minority = rng.normal(size=(12, 3))
    majority = rng.normal(size=(25, 3)) + 1.5
    X = np.vstack([minority, majority])
    y = np.array([1] * 12 + [0] * 25)
    cfg = NeighborConfig(kappa=4, seed=9)
    for n_new in (1, 13, 77):
        s = smote(minority, n_new, cfg)
        b = borderline_smote(X, y, n_new, cfg, minority_label=1)
        a = adasyn(X, y, cfg, n_new, minority_label=1)
        for out in (s, b, a):
            assert out.shape == (n_new, 3)
        np.testing.assert_array_equal(s, smote(minority, n_new, cfg))
        np.testing.assert_array_equal(b, borderline_smote(X, y, n_new, cfg, minority_label=1))
        np.testing.assert_array_equal(a, adasyn(X, y, cfg, n_new, minority_label=1))


def test_all_methods_interpolate_between_minority_points():
    rng = np.random.default_rng(66)
    minority = rng.normal(size=(10, 2))
    majority = rng.normal(size=(20, 2)) + 1.0
    X = np.vstack([minority, majority])
    y = np.array([1] * 10 + [0] * 20)
    cfg = NeighborConfig(kappa=3, seed=10)
    for out in (
        smote(minority, 400, cfg),
        borderline_smote(X, y, 400, cfg, minority_label=1),
        adasyn(X, y, cfg, 400, minority_label=1),
    ):
        assert on_segment_between(out, minority).all()


def test_minority_inference_without_explicit_label():
    rng = np.random.default_rng(67)
    minority = rng.normal(size=(5, 2))
    majority = rng.normal(size=(15, 2)) + 3.0
    X = np.vstack([majority, minority])
    y = np.array([0] * 15 + [1] * 5)
    cfg = NeighborConfig(kappa=2, seed=11)
    out = borderline_smote(X, y, 10, cfg)  # minority inferred as label 1
    assert out.shape == (10, 2)
    assert on_segment_between(out, minority).all()


def _far_minority(seed, n_min):
    # a tight minority blob far from the majority: every all-class neighbor of
    # a minority row is minority, so the danger set is empty and the ADASYN
    # weights are all zero at every kappa
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(size=(n_min, 2)) * 0.1, rng.normal(size=(5, 2)) * 0.1 + 50.0])
    return X, np.r_[np.ones(n_min, dtype=int), np.zeros(5, dtype=int)]


def _integer_ties(seed):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 4, size=(40, 3)).astype(np.float64)
    y = np.zeros(40, dtype=np.int64)
    y[rng.choice(40, size=14, replace=False)] = 1
    return X, y


@pytest.mark.parametrize("case", ["blobs", "integer_ties", "fallbacks"])
def test_per_trial_orders_give_the_standalone_rows(case, caplog):
    if case == "blobs":
        X, y = blob_dataset(np.random.default_rng(68), n_maj=30, n_min=12, m=3, sep=1.0)
    elif case == "integer_ties":
        X, y = _integer_ties(69)
    else:
        X, y = _far_minority(70, 8)
    minority = X[y == 1]
    width = len(minority) - 1
    orders = neighbor_orders(X, y, 1, width)
    assert orders.all_class.shape == orders.minority.shape == (len(minority), width)
    for kappa in range(1, width + 1):
        cfg = NeighborConfig(kappa, seed=kappa)
        caplog.clear()
        with caplog.at_level("INFO"):
            pairs = [
                (smote(minority, 40, cfg),
                 smote(minority, 40, cfg, minority_order=orders.minority)),
                (smote(minority, 40, cfg),
                 smote(minority, 40, cfg, minority_order=_neighbor_table(minority, width))),
                (borderline_smote(X, y, 40, cfg, minority_label=1),
                 borderline_smote(X, y, 40, cfg, minority_label=1, orders=orders)),
                (adasyn(X, y, cfg, 40, minority_label=1),
                 adasyn(X, y, cfg, 40, minority_label=1, orders=orders)),
            ]
        for standalone, shared in pairs:
            assert standalone.shape == (40, 3 if case != "fallbacks" else 2)
            assert standalone.tobytes() == shared.tobytes()
        if case == "fallbacks":
            # both samplers fell back, with and without the orders
            assert caplog.text.count("falling back") == 4


def test_orders_narrower_than_kappa_are_rejected():
    X, y = _integer_ties(71)
    orders = neighbor_orders(X, y, 1, 3)
    minority = X[y == 1]
    cfg = NeighborConfig(4, seed=1)
    for call in (
        lambda: smote(minority, 5, cfg, minority_order=orders.minority),
        lambda: smote(minority[1:], 5, NeighborConfig(3, seed=1), minority_order=orders.minority),
        lambda: borderline_smote(X, y, 5, cfg, minority_label=1, orders=orders),
        lambda: adasyn(X, y, cfg, 5, minority_label=1, orders=orders),
    ):
        with pytest.raises(ValueError, match="neighbor order of"):
            call()
    # kappa within the width is fine
    assert borderline_smote(X, y, 5, NeighborConfig(3, seed=1), minority_label=1,
                            orders=orders).shape == (5, 3)
