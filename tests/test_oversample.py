from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opfsample import baselines, oversample_to_count
from opfsample.cluster import (
    ClusterForest,
    build_knn_graph,
    cluster_ift,
    compute_density,
    sweep_normalized_cuts,
)
from opfsample.data import Dataset
from opfsample.harness import MAX_TRAINING_ROWS
from opfsample.oversample import (
    ClusterGaussian,
    OversamplePlan,
    allocate,
    append_minority_rows,
    gaussians_from_forest,
    largest_remainder,
    synthesize,
    synthesize_plan,
)

from helpers import NOT_INTEGERS, reference_sweep, two_pass_covariance


def test_two_point_cluster_closed_form():
    p = np.array([1.0, 2.0])
    q = np.array([3.0, 6.0])
    X = np.vstack([p, q])
    _, forests = sweep_normalized_cuts(X, 1)
    clusters = gaussians_from_forest(X, forests[0])
    assert len(clusters) == 1
    cg = clusters[0]
    np.testing.assert_allclose(cg.mu, (p + q) / 2)
    dev = (p - cg.mu).reshape(-1, 1)
    np.testing.assert_allclose(cg.sigma_mat, 2.0 * (dev @ dev.T), atol=1e-12)


def test_singleton_cluster_zero_covariance():
    X = np.array([[0.0, 0.0], [0.1, 0.0], [9.0, 9.0]])
    g = build_knn_graph(X, 1)
    forest = cluster_ift(g, compute_density(g))
    clusters = gaussians_from_forest(X, forest)
    singletons = [c for c in clusters if c.count == 1]
    if singletons:
        np.testing.assert_array_equal(singletons[0].sigma_mat, 0.0)
        np.testing.assert_array_equal(singletons[0].mu, X[singletons[0].member_indices[0]])
    # a hand-built forest whose second cluster is the singleton row 2
    forest = ClusterForest(np.zeros(3), [-1, 0, -1], [0, 0, 1], [0, 2])
    pair, single = gaussians_from_forest(X, forest)
    assert (pair.count, single.count) == (2, 1)
    np.testing.assert_array_equal(single.sigma_mat, np.zeros((2, 2)))
    np.testing.assert_array_equal(single.mu, X[2])


def test_cluster_gaussian_holds_read_only_copies_of_its_arguments():
    mu, sigma, members = np.zeros(2), np.eye(2), np.array([3, 7])
    cg = ClusterGaussian(mu, sigma, members)
    for given_arr, held in ((mu, cg.mu), (sigma, cg.sigma_mat), (members, cg.member_indices)):
        assert given_arr.flags.writeable
        assert not held.flags.writeable
        assert not np.shares_memory(given_arr, held)
    mu[0] = 5.0
    assert cg.mu[0] == 0.0


def test_cluster_gaussian_counts_its_members():
    members = np.array([3, 7, 9])
    assert ClusterGaussian(np.zeros(2), np.eye(2), members).count == members.size
    with pytest.raises(TypeError):
        ClusterGaussian(np.zeros(2), np.eye(2), 2, members)
    with pytest.raises(TypeError):
        ClusterGaussian(np.zeros(2), np.eye(2), members, count=2)
    with pytest.raises(ValueError, match="at least one member"):
        ClusterGaussian(np.zeros(2), np.eye(2), np.arange(0))
    with pytest.raises(ValueError, match="shape"):
        ClusterGaussian(np.zeros(2), np.eye(3), members)
    with pytest.raises(ValueError, match="symmetric"):
        ClusterGaussian(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]), members)
    for mu, sigma in (([np.nan, 0.0], np.eye(2)), ([np.inf, 0.0], np.eye(2)),
                      (np.zeros(2), [[np.inf, 0.0], [0.0, 1.0]]),
                      (np.zeros(2), [[np.nan, 0.0], [0.0, 1.0]])):
        with pytest.raises(ValueError, match="mean and covariance must be finite"):
            ClusterGaussian(np.array(mu), np.array(sigma), members)


def test_covariance_matches_two_pass_oracle():
    rng = np.random.default_rng(51)
    X = rng.normal(size=(30, 4))
    _, forests = reference_sweep(X, 5)  # every k, past the library's first zero cut
    for forest in forests:
        clusters = gaussians_from_forest(X, forest)
        assert sum(c.count for c in clusters) == 30
        for cg in clusters:
            if cg.count > 1:
                expected = two_pass_covariance(X[cg.member_indices])
                np.testing.assert_allclose(cg.sigma_mat, expected, atol=1e-9)
            np.testing.assert_allclose(cg.mu, X[cg.member_indices].mean(axis=0), atol=1e-12)


def test_fit_minority_requires_two_samples():
    rng = np.random.default_rng(59)
    y = np.zeros(6, dtype=int)
    y[0] = 1
    ds = Dataset.from_arrays(rng.normal(size=(6, 2)), y)
    with pytest.raises(ValueError, match="two minority"):
        oversample_to_count(ds, 3, k_max=1, seed=0)


def _gaussians(sizes):
    return [
        ClusterGaussian(np.zeros(2), np.zeros((2, 2)), np.arange(s))
        for s in sizes
    ]


def test_allocate_examples():
    assert allocate(_gaussians([10, 10]), 10).per_cluster_counts == (5, 5)
    assert allocate(_gaussians([3, 1]), 2).per_cluster_counts == (2, 0)
    assert allocate(_gaussians([7]), 7).per_cluster_counts == (7,)
    assert allocate(_gaussians([3, 2]), 0).per_cluster_counts == (0, 0)
    with pytest.raises(ValueError, match="no clusters"):
        allocate([], 3)
    with pytest.raises(ValueError, match="nonnegative"):
        allocate(_gaussians([3, 2]), -1)
    for n_new in (2.0, *NOT_INTEGERS):
        with pytest.raises(ValueError, match="^n_new must be"):
            allocate(_gaussians([3, 2]), n_new)
    for kind in (np.int64, np.int32):
        assert allocate(_gaussians([3, 2]), kind(5)).per_cluster_counts == (3, 2)


@given(
    st.lists(st.integers(1, 40), min_size=1, max_size=8),
    st.integers(0, 200),
)
def test_allocate_conserves_total(sizes, n_new):
    plan = allocate(_gaussians(sizes), n_new)
    assert sum(plan.per_cluster_counts) == n_new
    assert all(c >= 0 for c in plan.per_cluster_counts)


def test_largest_remainder_tie_prefers_larger_share():
    np.testing.assert_array_equal(largest_remainder(np.array([1.5, 0.5]), 2), [2, 0])
    # shares that sum to the total up to rounding can leave exactly one unit per share
    np.testing.assert_array_equal(largest_remainder(np.array([1 - 2**-53]), 1), [1])


def test_largest_remainder_rejects_inconsistent_totals():
    with pytest.raises(ValueError, match="exceed"):
        largest_remainder(np.array([3.0, 3.0]), 2)
    with pytest.raises(ValueError, match="undersum"):
        largest_remainder(np.array([0.2, 0.2]), 5)
    with pytest.raises(ValueError, match="undersum .* by more than rounding"):
        largest_remainder(np.array([0.5, 0.4]), 2)
    for shares in ([-0.5, 1.5], [np.nan], [np.inf, 0.0], [-np.inf], 1.0, [[0.5], [0.5]]):
        with pytest.raises(ValueError, match="a vector of finite nonnegative numbers"):
            largest_remainder(np.array(shares), 1)
    with pytest.raises(ValueError, match="cannot round 3 float64 shares"):
        largest_remainder(np.full(3, 10**16 / 3), 10**16)
    with pytest.raises(ValueError, match="nonnegative"):
        largest_remainder(np.array([0.0, 0.0]), -1)
    for total in (2.0, *NOT_INTEGERS):
        with pytest.raises(ValueError, match="^total must be"):
            largest_remainder(np.array([0.5, 0.5]), total)
    for kind in (np.int64, np.int32):
        np.testing.assert_array_equal(largest_remainder(np.array([1.5, 0.5]), kind(2)), [2, 0])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 1000), st.integers(0, MAX_TRAINING_ROWS), st.integers(1, MAX_TRAINING_ROWS),
       st.integers(1, 50), st.integers(0, 2**32 - 1))
def test_largest_remainder_takes_every_share_vector_the_samplers_build(size, total, most, kappa,
                                                                       seed):
    rng = np.random.default_rng(seed)
    # allocate's n·c/Σc over cluster sizes (it reads only each cluster's count)
    counts = rng.integers(1, most, size, endpoint=True)
    plan = allocate([SimpleNamespace(count=int(c)) for c in counts], total)
    shares = total * counts / counts.sum()
    assert sum(plan.per_cluster_counts) == total
    assert np.all(np.abs(np.array(plan.per_cluster_counts) - shares) < 1)
    # ADASYN's r/Σr·n, r being each minority row's majority neighbors over kappa
    maj_counts = rng.integers(0, kappa, size, endpoint=True)
    maj_counts[rng.integers(size)] = max(1, maj_counts.max())
    per_row = baselines._allocation(maj_counts, kappa, total)
    assert per_row.sum() == total and per_row.min() >= 0


def test_synthesize_plan_rejects_an_empty_cluster_list():
    with pytest.raises(ValueError, match="no clusters"):
        synthesize_plan([], OversamplePlan(()), seed=0)
    with pytest.raises(ValueError, match="does not match"):
        synthesize_plan(_gaussians([3, 2]), OversamplePlan((1,)), seed=0)


def test_synthesize_zero_covariance_copies():
    cg = ClusterGaussian(np.array([2.0, -1.0]), np.zeros((2, 2)), np.arange(3))
    out = synthesize(cg, 5, seed=7)
    assert out.shape == (5, 2)
    np.testing.assert_array_equal(out, np.tile(cg.mu, (5, 1)))
    empty = synthesize(cg, 0, seed=7)
    assert (empty.shape, empty.dtype) == ((0, 2), np.float64)
    with pytest.raises(ValueError, match="nonnegative"):
        synthesize(cg, -1, seed=7)
    for count in (2.0, *NOT_INTEGERS):
        with pytest.raises(ValueError, match="^count must be"):
            synthesize(cg, count, seed=7)
    for kind in (np.int64, np.int32):
        np.testing.assert_array_equal(synthesize(cg, kind(5), seed=7), out)


def test_synthesize_identity_covariance_statistics():
    mu = np.array([1.0, -2.0])
    cg = ClusterGaussian(mu, np.eye(2), np.arange(4))
    out = synthesize(cg, 10_000, seed=8)
    err = np.abs(out.mean(axis=0) - mu)
    assert (err < 4 / np.sqrt(10_000)).all()  # four standard errors per coordinate
    emp = two_pass_covariance(out)
    assert np.abs(emp - np.eye(2)).max() < 0.1


def test_synthesize_deterministic_and_degenerate_covariance():
    cov = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank deficient
    cg = ClusterGaussian(np.zeros(2), cov, np.arange(2))
    a = synthesize(cg, 50, seed=9)
    b = synthesize(cg, 50, seed=9)
    np.testing.assert_array_equal(a, b)
    # samples live on the diagonal line x = y
    assert np.abs(a[:, 0] - a[:, 1]).max() < 1e-9
    assert synthesize(cg, 0, seed=9).shape == (0, 2)


def test_synthesize_empirical_mean_converges():
    rng = np.random.default_rng(52)
    A = rng.normal(size=(3, 3))
    cov = A @ A.T
    mu = rng.normal(size=3)
    cg = ClusterGaussian(mu, cov, np.arange(5))
    out = synthesize(cg, 10_000, seed=10)
    bound = 5 * np.sqrt(np.diag(cov) / 10_000) + 1e-9
    assert (np.abs(out.mean(axis=0) - mu) < bound).all()


def _imbalanced_dataset(rng, n_maj=151, n_min=47, m=3):
    X = np.vstack(
        [rng.normal(size=(n_maj, m)), rng.normal(size=(n_min, m)) + 4.0]
    )
    y = np.r_[np.zeros(n_maj, dtype=int), np.ones(n_min, dtype=int)]
    return Dataset.from_arrays(X, y)


def test_balance_mode_counts():
    ds = _imbalanced_dataset(np.random.default_rng(53))
    out = oversample_to_count(ds, 151 - 47, k_max=10, seed=1)
    assert out.class_counts == (151, 151)
    assert out.n_samples == ds.n_samples + 104


def test_original_rows_preserved_and_labels_minority():
    ds = _imbalanced_dataset(np.random.default_rng(56), n_maj=30, n_min=12)
    out = oversample_to_count(ds, 18, k_max=5, seed=4)
    n = ds.n_samples
    np.testing.assert_array_equal(out.features[:n], ds.features)
    np.testing.assert_array_equal(out.labels[:n], ds.labels)
    np.testing.assert_array_equal(out.labels[n:], ds.minority_label)
    assert out.minority_label == ds.minority_label
    assert append_minority_rows(ds, np.empty((0, 3))) is ds


def test_oversample_deterministic():
    ds = _imbalanced_dataset(np.random.default_rng(57), n_maj=30, n_min=12)
    a = oversample_to_count(ds, 18, k_max=5, seed=5)
    b = oversample_to_count(ds, 18, k_max=5, seed=5)
    c = oversample_to_count(ds, 18, k_max=5, seed=6)
    np.testing.assert_array_equal(a.features, b.features)
    assert not np.array_equal(a.features, c.features)


def test_oversample_requires_minority():
    rng = np.random.default_rng(58)
    ds = Dataset(rng.normal(size=(6, 2)), np.zeros(6, dtype=int), ("a", "b"), 1)
    with pytest.raises(ValueError, match="minority"):
        oversample_to_count(ds, 3, k_max=2, seed=0)
    # a zero request returns the set itself before the minority check; a negative one raises
    assert oversample_to_count(ds, 0, k_max=2, seed=0) is ds
    with pytest.raises(ValueError, match="nonnegative"):
        oversample_to_count(ds, -1, k_max=2, seed=0)
    for n_new in (2.0, *NOT_INTEGERS):
        with pytest.raises(ValueError, match="^n_new must be"):
            oversample_to_count(ds, n_new, k_max=2, seed=0)
    assert oversample_to_count(ds, np.int64(0), k_max=2, seed=0) is ds
    # the seed is checked before anything else, a zero request included
    for seed in (*NOT_INTEGERS, -1):
        for n_new in (0, 3):
            with pytest.raises(ValueError, match="^seed must be a nonnegative integer"):
                oversample_to_count(ds, n_new, k_max=2, seed=seed)


def test_oversample_to_count_keeps_two_blobs_apart():
    # Well-separated minority blobs: no synthetic row may fall between them,
    # and the blob-aligned 2-cluster solution must sit at the minimal cut
    # value. (At very small k the graph decomposes into sub-blob components
    # whose cut is also minimal, and the low-k tie rule may pick one of those.)
    rng = np.random.default_rng(32)
    blob1 = rng.normal(0, 0.5, size=(20, 2))
    blob2 = rng.normal(0, 0.5, size=(20, 2)) + [40.0, 0.0]
    minority = np.vstack([blob1, blob2])
    majority = rng.normal(0, 0.5, size=(60, 2)) + [20.0, 40.0]
    ds = Dataset.from_arrays(np.vstack([minority, majority]), np.r_[np.ones(40, dtype=int), np.zeros(60, dtype=int)])
    out = oversample_to_count(ds, 20, k_max=10, seed=3)
    x = out.features[ds.n_samples:, 0]
    assert x.size == 20
    assert ((x < 10.0) | (x > 30.0)).all()
    # the library sweep stops at the first zero cut (k = 1 here), so the
    # forests past it come from the full reference sweep
    cuts, forests = reference_sweep(minority, 10)
    aligned = [
        k
        for k in range(1, 11)
        if forests[k - 1].num_clusters == 2
        and len(set(forests[k - 1].cluster_id[:20])) == 1
        and len(set(forests[k - 1].cluster_id[20:])) == 1
    ]
    assert aligned, "no k in range recovered the two blobs"
    assert cuts[aligned[0] - 1] == cuts.min()


def test_oversample_to_count_matches_public_pieces_oracle():
    # Three tight blobs: several k tie at the least cut with different
    # cluster counts, so the tie rule (first minimum, smaller k) decides.
    rng = np.random.default_rng(0)
    minority = np.vstack([rng.normal(0, 0.3, size=(6, 2)) + c for c in ([0, 0], [10, 0], [0, 10])])
    majority = rng.normal(0, 0.3, size=(30, 2)) + [30.0, 30.0]
    ds = Dataset.from_arrays(np.vstack([majority, minority]), np.r_[np.zeros(30, dtype=int), np.ones(18, dtype=int)])
    k_max, n_new, seed = 8, 12, 21
    # the full reference sweep, so the tie rule is checked against the
    # oracle's cuts past the library's first zero, not against itself
    cuts, forests = reference_sweep(minority, k_max)
    tied = [i for i in range(k_max) if cuts[i] == cuts.min()]
    assert len({forests[i].num_clusters for i in tied}) > 1
    best = min(range(k_max), key=lambda i: (cuts[i], i))
    clusters = gaussians_from_forest(minority, forests[best])
    expected = append_minority_rows(ds, synthesize_plan(clusters, allocate(clusters, n_new), seed))
    got = oversample_to_count(ds, n_new, k_max, seed)
    np.testing.assert_array_equal(got.features, expected.features)
    np.testing.assert_array_equal(got.labels, expected.labels)
