import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import minimum_spanning_tree

from opfsample.classifier import OpfClassifier, _prim
from opfsample.cluster import distance_block, pairwise_distances

from helpers import (
    classifier_cost_closure,
    classifier_cost_dfs,
    pairwise,
    pairwise_rows,
    predict_full_scan,
    textbook_prim,
)


def test_two_samples_one_per_class():
    model = OpfClassifier().fit(np.array([[0.0], [3.0]]), [0, 1])
    np.testing.assert_array_equal(model.prototypes_, [0, 1])
    np.testing.assert_array_equal(model.cost_, [0.0, 0.0])
    np.testing.assert_array_equal(model.assigned_label_, [0, 1])


def test_cost_map_matches_exhaustive_path_oracle():
    rng = np.random.default_rng(41)
    for trial in range(40):
        n = int(rng.integers(4, 9))
        if trial % 2:
            # integer coordinates on a small grid: many exactly tied distances
            X = rng.integers(0, 3, size=(n, 2)).astype(np.float64)
        else:
            X = rng.normal(size=(n, 2))
        y = rng.integers(0, 2, size=n)
        if len(set(y)) < 2:
            y[0] = 1 - y[0]
        model = OpfClassifier().fit(X, y)
        dist = pairwise(X)
        dfs = classifier_cost_dfs(dist, model.prototypes_)
        closure = classifier_cost_closure(dist, model.prototypes_)
        np.testing.assert_array_equal(dfs, closure)
        np.testing.assert_array_equal(model.cost_, dfs)
        np.testing.assert_array_equal(model.assigned_label_, y)


def test_tied_distances_keep_each_training_label():
    # (0, 0) is reached at cost 1 both from the class-1 prototype (0, 1) and,
    # through (1, 0), from the class-0 prototype (1, 1); a cost competition
    # with index tie-breaks hands it label 1
    X = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 0.0], [0.0, 1.0]])
    y = np.array([0, 0, 0, 1])
    model = OpfClassifier().fit(X, y)
    np.testing.assert_array_equal(model.assigned_label_, y)
    np.testing.assert_array_equal(model.predict_batch(X), y)


def test_four_point_fixture_costs():
    # two pairs by class on a line: prototypes are the inner frontier points
    X = np.array([[0.0], [1.0], [4.0], [5.0]])
    y = np.array([0, 0, 1, 1])
    model = OpfClassifier().fit(X, y)
    np.testing.assert_array_equal(model.prototypes_, [1, 2])
    np.testing.assert_allclose(model.cost_, [1.0, 0.0, 0.0, 1.0])
    np.testing.assert_array_equal(model.assigned_label_, y)


def test_zero_training_error_random_fixtures():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = int(rng.integers(4, 40))
        X = rng.normal(size=(n, 3))
        y = rng.integers(0, 2, size=n)
        if len(set(y)) < 2:
            y[0] = 1 - y[0]
        model = OpfClassifier().fit(X, y)
        np.testing.assert_array_equal(model.assigned_label_, y)
        preds = model.predict_batch(X)
        np.testing.assert_array_equal(preds, y)


def test_predict_training_sample_returns_its_label():
    rng = np.random.default_rng(43)
    X = rng.normal(size=(12, 2))
    y = rng.integers(0, 2, size=12)
    y[:2] = [0, 1]
    model = OpfClassifier().fit(X, y)
    for i in range(12):
        assert model.predict(X[i]) == y[i]


def test_predict_midpoint_tie_goes_to_lower_index():
    model = OpfClassifier().fit(np.array([[0.0], [2.0]]), [1, 0])
    # both prototypes at cost 0, probe equidistant: node 0 wins the tie
    assert model.predict(np.array([1.0])) == 1


def test_predict_matches_full_scan_oracle():
    rng = np.random.default_rng(44)
    X = rng.normal(size=(10, 3))
    y = np.r_[np.zeros(5, dtype=int), np.ones(5, dtype=int)]
    model = OpfClassifier().fit(X, y)
    probes = rng.normal(size=(30, 3)) * 2.0
    for p in probes:
        expected = predict_full_scan(X, model.cost_, model.assigned_label_, p)
        assert model.predict(p) == expected
    np.testing.assert_array_equal(
        model.predict_batch(probes),
        [predict_full_scan(X, model.cost_, model.assigned_label_, p) for p in probes],
    )
    # an integer grid whose second half repeats the first, so rows of both
    # classes coincide and equal max(cost, d) values decide many labels by
    # the lowest-index rule, with or without a known prefix of the distances
    for seed in (45, 46, 47):
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 4, size=(30, 2)).astype(np.float64)
        X[15:] = X[:15]
        y = rng.integers(0, 2, size=30)
        y[[0, 15]] = [0, 1]
        model = OpfClassifier().fit(X, y)
        probes = rng.integers(-1, 5, size=(40, 2)).astype(np.float64)
        want = [predict_full_scan(X, model.cost_, model.assigned_label_, p) for p in probes]
        block = distance_block(X, probes)
        for t in (0, 1, len(X) // 2, len(X)):
            np.testing.assert_array_equal(model.predict_batch(probes, known=block[:, :t]), want)


@settings(max_examples=40)
@given(st.integers(0, 2**31 - 1), st.integers(2, 12), st.integers(1, 3))
def test_predict_is_a_batch_of_one(seed, n, m):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, m))
    y = rng.integers(0, 2, size=n)
    y[0] = 0
    y[-1] = 1
    model = OpfClassifier().fit(X, y)
    for probe in rng.normal(size=(5, m)) * 1.5:
        assert model.predict(probe) == model.predict_batch([probe])[0]
        assert model.predict(probe) == predict_full_scan(
            X, model.cost_, model.assigned_label_, probe
        )


def test_prototypes_span_both_classes_and_frontier_fixture():
    X = np.array([[0.0], [1.0], [2.0], [5.0], [6.0], [7.0]])
    y = np.array([0, 0, 0, 1, 1, 1])
    model = OpfClassifier().fit(X, y)
    np.testing.assert_array_equal(model.prototypes_, [2, 3])  # the frontier pair
    rng = np.random.default_rng(46)
    for _ in range(10):
        Xr = rng.normal(size=(15, 2))
        yr = rng.integers(0, 2, size=15)
        yr[:2] = [0, 1]
        m = OpfClassifier().fit(Xr, yr)
        assert len(set(yr[m.prototypes_])) == 2


def test_prototypes_match_an_independent_minimum_spanning_tree():
    # on tie-free data the MST is unique, so the prototypes are exactly the
    # endpoints of its cross-class arcs, whichever algorithm builds it
    rng = np.random.default_rng(48)
    for _ in range(30):
        n = int(rng.integers(2, 40))
        X = rng.normal(size=(n, 3))
        y = rng.integers(0, 2, size=n)
        y[:2] = [0, 1]
        tree = minimum_spanning_tree(pairwise(X)).tocoo()
        cross = y[tree.row] != y[tree.col]
        expected = np.union1d(tree.row[cross], tree.col[cross])
        np.testing.assert_array_equal(OpfClassifier().fit(X, y).prototypes_, expected)


def test_duplicate_points_across_classes_allowed():
    X = np.array([[0.0], [0.0], [5.0]])
    y = np.array([0, 1, 1])
    model = OpfClassifier().fit(X, y)  # must not raise
    assert set(map(int, model.prototypes_)) >= {0, 1}


def test_serialization_round_trip():
    rng = np.random.default_rng(47)
    X = rng.normal(size=(14, 3))
    y = rng.integers(0, 2, size=14)
    y[:2] = [0, 1]
    model = OpfClassifier().fit(X, y)
    blob = model.to_json()
    payload = json.loads(blob)
    assert payload["format_version"] == 2
    assert sorted(payload) == ["cost", "format_version", "prototypes", "train_features", "train_labels"]
    clone = OpfClassifier.from_json(blob)
    probes = rng.normal(size=(20, 3))
    np.testing.assert_array_equal(model.predict_batch(probes), clone.predict_batch(probes))
    np.testing.assert_array_equal(model.cost_, clone.cost_)
    np.testing.assert_array_equal(clone.assigned_label_, y)
    assert clone.to_json() == blob


def test_serialization_rejects_unknown_version():
    model = OpfClassifier().fit(np.array([[0.0], [1.0]]), [0, 1])
    blob = model.to_json()
    # version 1 also stored the labels, the processing order and predecessors
    v1 = dict(json.loads(blob), format_version=1, assigned_label=[0, 1], order=[0, 1], pred=[-1, -1])
    for bad in (blob.replace('"format_version": 2', '"format_version": 99'), json.dumps(v1)):
        with pytest.raises(ValueError, match="version"):
            OpfClassifier.from_json(bad)


@pytest.mark.parametrize(
    "tamper",
    [
        lambda p: p.update(train_labels=[0, 0, 7, 1]),
        lambda p: p.update(train_labels=[0.5, 0, 1.7, 1]),
        lambda p: p.update(cost=p["cost"][:1]),
        lambda p: p["cost"].__setitem__(-1, p["cost"][-1] + 0.5),
        lambda p: p.update(prototypes=[0, 3]),
        lambda p: p["train_features"].__setitem__(1, [float("nan")]),
        lambda p: p.update(train_labels=[1, 1, 1, 1]),
    ],
    ids=["label-7", "fractional-labels", "short-cost", "changed-cost",
         "changed-prototypes", "nan-feature", "single-class"],
)
def test_from_json_rejects_a_blob_that_a_fit_disagrees_with(tamper):
    X, y = np.array([[0.0], [1.0], [5.0], [6.0]]), np.array([0, 0, 1, 1])
    payload = json.loads(OpfClassifier().fit(X, y).to_json())
    tamper(payload)
    with pytest.raises(ValueError):
        OpfClassifier.from_json(json.dumps(payload))


@pytest.mark.parametrize(
    "blob",
    [
        lambda p: json.dumps({k: v for k, v in p.items() if k != "cost"}),
        lambda p: json.dumps({k: v for k, v in p.items() if k != "train_features"}),
        lambda p: "[2]",
        lambda p: '"x"',
        lambda p: "null",
        lambda p: json.dumps({**p, "train_features": {"a": 1}}),
        lambda p: json.dumps({**p, "train_features": [{}, {}]}),
    ],
    ids=["no-cost", "no-features", "list", "string", "null", "object-features",
         "object-rows"],
)
def test_from_json_rejects_valid_json_that_is_not_a_model(blob):
    payload = json.loads(OpfClassifier().fit(np.array([[0.0], [1.0]]), [0, 1]).to_json())
    with pytest.raises(ValueError):
        OpfClassifier.from_json(blob(payload))


def test_fit_and_predict_errors():
    with pytest.raises(ValueError):
        OpfClassifier().fit(np.zeros((3, 2)), [0, 0, 0])  # single class
    with pytest.raises(ValueError):
        OpfClassifier().fit(np.array([[np.nan, 0.0], [0.0, 1.0]]), [0, 1])
    for X, y in ((np.zeros((3, 2)), [0, 1]), (np.zeros(3), [0, 1, 0])):
        with pytest.raises(ValueError, match="matching label vector"):
            OpfClassifier().fit(X, y)
    model = OpfClassifier().fit(np.array([[0.0, 0.0], [1.0, 1.0]]), [0, 1])
    with pytest.raises(ValueError):
        model.predict(np.array([1.0, 2.0, 3.0]))  # dimension mismatch
    with pytest.raises(ValueError):
        model.predict(np.array([np.nan, 0.0]))
    with pytest.raises(ValueError):
        OpfClassifier().predict(np.array([0.0, 0.0]))  # not fitted


def test_fit_rejects_labels_outside_zero_one():
    # a cast would have read these as 0, 1, 0, 1
    with pytest.raises(ValueError, match="labels must take values"):
        OpfClassifier().fit([[0.0], [1.0], [2.0], [3.0]], [0.4, 1.6, 0.0, 1.0])


def test_fitted_and_loaded_models_hold_read_only_copies():
    X, y = np.array([[0.0], [1.0], [5.0], [6.0]]), np.array([0, 0, 1, 1])
    model = OpfClassifier().fit(X, y)
    assert X.flags.writeable and y.flags.writeable
    for m in (model, OpfClassifier.from_json(model.to_json())):
        for arr in (m.train_features_, m.train_labels_, m.cost_, m.assigned_label_, m.prototypes_):
            assert not arr.flags.writeable
            assert not np.shares_memory(arr, X) and not np.shares_memory(arr, y)


def test_fit_rejects_distances_that_overflow():
    # each feature is finite, but squared differences overflow to inf
    with pytest.raises(ValueError, match="finite pairwise distances"):
        OpfClassifier().fit([[1e200], [-1e200], [0.0], [2e200]], [0, 1, 0, 1])


def test_predict_rejects_distances_that_overflow():
    model = OpfClassifier().fit([[0.0], [1.0], [5.0], [6.0]], [0, 0, 1, 1])
    for probe in (1e300, np.inf):
        with pytest.raises(ValueError, match="probe 0 must give finite distances"):
            model.predict_batch([[probe]])
    with pytest.raises(ValueError, match="probe 1 must give finite distances"):
        model.predict_batch([[0.5], [-1e300]])


def test_fit_with_known_prefix_equals_plain_fit():
    rng = np.random.default_rng(48)
    X = rng.normal(size=(30, 3))
    y = rng.integers(0, 2, size=30)
    y[:2] = [0, 1]
    plain = OpfClassifier().fit(X, y)
    for t in (0, 1, 17, 30):
        model = OpfClassifier().fit(X, y, known_dist=pairwise_distances(X[:t]))
        assert model.to_json() == plain.to_json()


def test_fit_rejects_a_misshapen_known_block():
    X = np.random.default_rng(49).normal(size=(6, 2))
    y = np.array([0, 1, 0, 1, 0, 1])
    for bad in (np.zeros((3, 4)), np.zeros(6), np.zeros((7, 7)), np.zeros((1, 2, 2))):
        with pytest.raises(ValueError):
            OpfClassifier().fit(X, y, known_dist=bad)


def test_prim_matches_textbook_prim_where_ties_decide_the_tree():
    # integer grid with duplicate rows: many equal keys, so the tie rule shapes the tree
    rng = np.random.default_rng(50)
    for n in (1, 2, 3, 8, 25, 60):
        X = rng.integers(0, 3, size=(n, 2)).astype(np.float64)
        X[n // 2:] = X[: n - n // 2]  # the second half repeats the first
        dist = pairwise_rows(X)
        joined, parent = _prim(dist)
        want_joined, want_parent = textbook_prim(dist.tolist())
        assert joined.tolist() == want_joined
        assert parent.tolist() == want_parent


def _rounded_fit(seed):
    # one decimal, so probe distances and path costs tie often
    rng = np.random.default_rng(seed)
    X = np.round(rng.normal(size=(24, 2)), 1)
    y = np.r_[np.zeros(12, dtype=int), np.ones(12, dtype=int)]
    probes = np.round(rng.normal(size=(15, 2)), 1)
    probes[:5] = X[rng.choice(24, 5)]  # probes on training rows
    return OpfClassifier().fit(X, y), X, probes


def test_predict_with_known_columns_equals_plain_predict():
    for seed in (51, 52, 53):
        model, X, probes = _rounded_fit(seed)
        plain = model.predict_batch(probes)
        block = distance_block(X, probes)
        for t in (0, 1, len(X) // 2, len(X)):
            np.testing.assert_array_equal(model.predict_batch(probes, known=block[:, :t]), plain)


def test_predict_rejects_a_misshapen_known_block():
    model, X, probes = _rounded_fit(54)
    block = distance_block(X, probes)
    for bad in (block[0], block[:, :, None], block[:-1], np.vstack([block, block[:1]]),
                np.hstack([block, block[:, :1]])):
        with pytest.raises(ValueError, match="known distances must be"):
            model.predict_batch(probes, known=bad)


def test_predict_checks_known_cells_and_computed_columns_for_finiteness():
    model = OpfClassifier().fit([[0.0], [1.0], [5.0], [6.0]], [0, 0, 1, 1])
    probes = np.array([[0.5], [2.0], [5.5]])
    block = distance_block(model.train_features_, probes)
    for value in (np.inf, np.nan):
        bad = block.copy()
        bad[1, 0] = value
        with pytest.raises(ValueError, match="probe 1 must give finite distances"):
            model.predict_batch(probes, known=bad[:, :2])
    # the probe overflows in the computed columns, past the known ones
    with pytest.raises(ValueError, match="probe 2 must give finite distances"):
        model.predict_batch([[0.5], [2.0], [1e300]], known=block[:, :1])
    # of two bad probes, the first is named, whichever of its cells is bad
    bad = block.copy()
    bad[2, 0] = np.inf
    with pytest.raises(ValueError, match="probe 1 must give finite distances"):
        model.predict_batch([[0.5], [-1e300], [5.5]], known=bad[:, :1])
    with pytest.raises(ValueError, match="probe 0 must give finite distances"):
        model.predict_batch([[1e300], [2.0], [5.5]], known=bad[:, :1])
