import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import minimum_spanning_tree

from opfsample import cluster
from opfsample.classifier import (
    OpfClassifier,
    _certified_fit,
    _first_minima,
    _prim,
    _tree_minimax_costs,
)
from opfsample.cluster import (
    distance_block,
    distance_bounds,
    pairwise_distances,
    pairwise_lower_bounds,
)
from opfsample.data import Dataset, PreprocessStats, squared_norms
from opfsample.errors import DataError

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
    # the lowest-index rule
    for seed in (45, 46, 47):
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 4, size=(30, 2)).astype(np.float64)
        X[15:] = X[:15]
        y = rng.integers(0, 2, size=30)
        y[[0, 15]] = [0, 1]
        model = OpfClassifier().fit(X, y)
        probes = rng.integers(-1, 5, size=(40, 2)).astype(np.float64)
        want = [predict_full_scan(X, model.cost_, model.assigned_label_, p) for p in probes]
        np.testing.assert_array_equal(model.predict_batch(probes), want)


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
    # each feature is finite, but a row whose squared differences could
    # overflow is past the row-size rule: the first such row is named
    with pytest.raises(ValueError, match="training row 1 is too large"):
        OpfClassifier().fit([[0.0], [-1e200], [1e200], [2e200]], [0, 1, 0, 1])
    with pytest.raises(ValueError, match="training row 2 is too large"):
        OpfClassifier().fit([[0.0, 1.0], [1.0, 0.0], [0.0, np.inf]], [0, 1, 0])


def test_predict_rejects_distances_that_overflow():
    model = OpfClassifier().fit([[0.0], [1.0], [5.0], [6.0]], [0, 0, 1, 1])
    for probe in (1e300, np.inf, 1e152):
        with pytest.raises(ValueError, match="probe 0 is too large"):
            model.predict_batch([[probe]])
    with pytest.raises(ValueError, match="probe 1 is too large"):
        model.predict_batch([[0.5], [-1e300]])


def test_one_row_size_rule_from_standardization_to_the_classifier():
    # a squared norm of exactly 2**1000 is within the rule, one ulp more is not
    at, past = 2.0 ** 500, 2.0 ** 500 * (1 + 2.0 ** -52)
    assert at * at == 2.0 ** 1000 < past * past
    stats = PreprocessStats(np.zeros(2), np.ones(2))  # scales every cell by 1
    for row in ([at, 0.0], [0.0, -at]):
        part = Dataset.from_arrays([[0.0, 0.0], row], [0, 1])
        np.testing.assert_array_equal(stats.apply(part, "test").features, part.features)
        model = OpfClassifier().fit(part.features, part.labels)
        assert model.predict_batch([row, [1.0, 1.0]]).tolist() == [1, 0]
    for row in ([past, 0.0], [0.0, -past]):
        part = Dataset.from_arrays([[0.0, 0.0], row], [0, 1])
        with pytest.raises(DataError, match="test partition row 2, .* is too large"):
            stats.apply(part, "test")
        with pytest.raises(ValueError, match="training row 1 is too large"):
            OpfClassifier().fit(part.features, part.labels)
        with pytest.raises(ValueError, match="probe 1 is too large"):
            model.predict_batch([[1.0, 1.0], row])


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
        joined, parent, weight = _prim(dist)
        want_joined, want_parent = textbook_prim(dist.tolist())
        assert joined.tolist() == want_joined
        assert parent.tolist() == want_parent
        np.testing.assert_array_equal(weight, dist[np.arange(n), parent])


# The certified path. Each test below calls the private helpers directly, so
# both sides of the fit's selection rule are exercised on small inputs.

_KINDS = ("normal", "grid", "ulp", "offset")


def _bounded_case(seed, n, m, kind, exponent, v):
    """Training rows, labels with both classes and v probes of one kind.

    "grid": an integer grid whose second half repeats the first; "ulp": every
    other row one ulp above the row before it; "offset": a small spread around
    a large common offset, where the squared-norm formula cancels heavily. All
    but "offset" are scaled by 10**exponent.
    """
    rng = np.random.default_rng(seed)
    if kind == "grid":
        X = rng.integers(0, 3, size=(n + v, m)).astype(np.float64)
        X[n // 2: n] = X[: n - n // 2]
    elif kind == "offset":
        X = 1e3 + rng.normal(size=(n + v, m)) * 1e-5
    else:
        X = rng.normal(size=(n + v, m))
    if kind != "offset":
        X *= 10.0 ** exponent
    if kind == "ulp":
        X[1:n:2] = np.nextafter(X[0:n - 1:2], np.inf)
    X, P = X[:n], X[n:]
    P[: v // 2] = X[rng.integers(0, n, size=v // 2)]  # probes on training rows
    y = rng.integers(0, 2, size=n)
    y[:2] = [0, 1]
    return X, y, P


def _exact_fit(X, y, dist):
    """Prim on the exact matrix, then the fit's prototypes and costs."""
    joined, parent, weight = _prim(dist)
    cross = joined[y[joined] != y[parent[joined]]]
    prototypes = np.unique(np.concatenate([cross, parent[cross]]))
    return (joined, parent, weight), prototypes, _tree_minimax_costs(weight, joined, parent,
                                                                     prototypes)


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


@settings(max_examples=80)
@given(st.integers(0, 2**31 - 1), st.integers(2, 40), st.integers(1, 64),
       st.sampled_from(_KINDS), st.integers(-150, 150), st.floats(0.0, 1.0),
       st.integers(0, 8))
def test_certified_fit_and_prediction_equal_the_exact_path(seed, n, m, kind, exponent, share, v):
    X, y, P = _bounded_case(seed, n, m, kind, exponent, v)
    t = int(share * n)
    sq, small = squared_norms(X)
    if not small.all():  # rows past the row-size rule are refused, never bounded
        with pytest.raises(ValueError, match="training row .* is too large"):
            OpfClassifier().fit(X, y)
        return
    dist = pairwise_distances(X)
    tree, prototypes, cost = _exact_fit(X, y, dist)
    model = OpfClassifier().fit(X, y, known_dist=dist[:t, :t])
    np.testing.assert_array_equal(model.prototypes_, prototypes)
    assert _bits(model.cost_) == _bits(cost)
    # the certified fit: exact known block, lower bounds everywhere else
    got = _prim(pairwise_lower_bounds(X, sq, dist[:t, :t]), X, t)
    assert [_bits(a) for a in got] == [_bits(a) for a in tree]
    sq_p, small_p = squared_norms(P)
    if not small_p.all():
        with pytest.raises(ValueError, match="probe .* is too large"):
            model.predict_batch(P)
        return
    want = model.assigned_label_[np.maximum(cost, distance_block(X, P)).argmin(axis=1)]
    np.testing.assert_array_equal(model.predict_batch(P), want)
    got = model.assigned_label_[_first_minima(X, P, sq, sq_p, cost)]
    np.testing.assert_array_equal(got, want)


def _offset_case():
    # rows 1e-5 apart around 1e3: the squared-norm formula's error dwarfs the distances
    rng = np.random.default_rng(3)
    X = np.round(1e3 + rng.normal(size=(12, 3)) * 1e-5, 9)
    y = np.r_[np.zeros(6, dtype=int), np.ones(6, dtype=int)]
    P = 1e3 + rng.normal(size=(20, 3)) * 1e-5
    return X, y, P


def _certified_outputs(X, model, P):
    sq, sq_p = squared_norms(X)[0], squared_norms(P)[0]
    tree = _prim(pairwise_lower_bounds(X, sq), X, 0)
    labels = model.assigned_label_[_first_minima(X, P, sq, sq_p, model.cost_)]
    return [_bits(a) for a in tree], labels.tolist()


def test_certified_bounds_have_teeth(monkeypatch):
    X, y, P = _offset_case()
    model = OpfClassifier().fit(X, y)
    tree = [_bits(a) for a in _prim(pairwise_distances(X))]
    labels = model.assigned_label_[np.maximum(model.cost_, distance_block(X, P)).argmin(axis=1)]
    assert _certified_outputs(X, model, P) == (tree, labels.tolist())
    monkeypatch.setattr(cluster, "_BOUND_FACTOR", cluster._BOUND_FACTOR * 1e-6)
    got_tree, got_labels = _certified_outputs(X, model, P)
    assert got_tree != tree and got_labels != labels.tolist()


class _NoisyProducts:
    """numpy, except that every matrix product is off by half the bound's
    slack: each product moves by (c·(sa + sb) + e) / 4, so the squared
    distance it gives moves by half the bound, in a random direction."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, a, b, out=None):
        out = np.matmul(a, b, out=out)
        c, e = cluster._bound_terms(a.shape[1])
        half = (c * ((a * a).sum(axis=1)[:, None] + (b * b).sum(axis=0)) + e) / 4
        out += self.rng.choice([-1.0, 1.0], size=out.shape) * half
        return out


@pytest.mark.parametrize("kind", _KINDS)
def test_certified_outputs_survive_noise_of_half_the_bound(monkeypatch, kind):
    for seed in range(6):
        X, y, P = _bounded_case(seed, 30, 1 + 7 * seed, kind, 0, 12)
        model = OpfClassifier().fit(X, y)
        tree = [_bits(a) for a in _prim(pairwise_distances(X))]
        labels = model.assigned_label_[np.maximum(model.cost_, distance_block(X, P)).argmin(axis=1)]
        with monkeypatch.context() as patch:
            patch.setattr(cluster, "np", _NoisyProducts(seed))
            assert _certified_outputs(X, model, P) == (tree, labels.tolist())


def test_certified_fit_is_chosen_by_shape_and_equals_the_exact_fit():
    rng = np.random.default_rng(61)
    t, s, m = 100, 200, 40
    X = rng.normal(size=(t + s, m))
    X[t:] = X[rng.integers(0, t, size=s)] + 0.1 * rng.normal(size=(s, m))
    y = np.r_[rng.integers(0, 2, size=t), np.ones(s, dtype=int)]
    y[:2] = [0, 1]
    assert _certified_fit(t + s, t, m) and not _certified_fit(t + s, t + s, m)
    assert not _certified_fit(t + s // 10, t, m)
    dist = pairwise_distances(X)
    _, prototypes, cost = _exact_fit(X, y, dist)
    model = OpfClassifier().fit(X, y, known_dist=dist[:t, :t])
    np.testing.assert_array_equal(model.prototypes_, prototypes)
    assert _bits(model.cost_) == _bits(cost)


def test_certified_lower_bound_of_a_nan_cell_is_zero():
    # inf - inf in the squared-norm formula: the lower bound is 0, so the cell
    # is computed whenever it could matter, and the upper bound is no bound
    A = np.array([[0.0, 1.0], [2.0, 3.0]])
    P = np.array([[np.inf, 0.0], [1.0, 1.0]])
    with np.errstate(invalid="ignore"):  # inf * 0 in the product
        lower, upper = distance_bounds(A, P, *(squared_norms(Z)[0] for Z in (A, P)))
    np.testing.assert_array_equal(lower[0], [0.0, 0.0])
    assert not (upper[0] <= np.inf).any()
    assert (lower[1] <= distance_block(A, P[1:])[0]).all()


def test_certified_paths_reject_rows_past_the_norm_limit():
    rng = np.random.default_rng(62)
    n, m = 200, 60
    assert _certified_fit(n, 0, m)
    X = rng.normal(size=(n, m))
    y = np.r_[np.zeros(n // 2, dtype=int), np.ones(n // 2, dtype=int)]
    bad = X.copy()
    bad[[9, 7], 0] = [1e200, -1e200]
    with pytest.raises(ValueError, match="training row 7 is too large"):
        OpfClassifier().fit(bad, y)
    # rows past the norm limit are refused even when their distances are finite
    far = X + 1e160
    with pytest.raises(ValueError, match="training row 0 is too large"):
        OpfClassifier().fit(far, y)
    with pytest.raises(ValueError, match="training row 150 is too large"):
        OpfClassifier().fit(np.vstack([X[:150], far[150:]]), y,
                            known_dist=pairwise_distances(X[:150]))
    # the first probe past the limit is named, among probes within it
    model = OpfClassifier().fit(X, y)
    probes = rng.normal(size=(5, m))
    for rows, first, value in (([2], 2, 1e300), ([3, 1], 1, 1e152), ([0, 4], 0, -np.inf)):
        batch = probes.copy()
        batch[rows, 0] = value
        with pytest.raises(ValueError, match=f"probe {first} is too large"):
            model.predict_batch(batch)
    want = model.assigned_label_[np.maximum(model.cost_, distance_block(X, probes)).argmin(axis=1)]
    np.testing.assert_array_equal(model.predict_batch(probes), want)
    assert model.predict_batch(np.empty((0, m))).shape == (0,)
