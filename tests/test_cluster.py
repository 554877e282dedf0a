import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from opfsample.cluster import (
    ClusterForest,
    DensityMap,
    KnnGraph,
    build_knn_graph,
    cluster_ift,
    compute_density,
    normalized_cut,
    pairwise_distances,
    sweep_normalized_cuts,
)

from helpers import (
    brute_force_knn,
    cluster_cost_closure,
    cluster_cost_dfs,
    cluster_ift_reference,
    pairwise_rows,
    symmetrize,
)


@given(
    st.integers(0, 2**31 - 1),
    st.integers(1, 40),
    st.integers(1, 12),
    st.floats(0.0, 0.5),
    st.floats(0.0, 0.5),
)
def test_pairwise_distances_bitwise_equal_row_oracle(seed, n, m, dup_share, zero_share):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, m)) * rng.choice([1e-3, 1.0, 1e3], size=m)
    dups = rng.random(n) < dup_share
    X[dups] = X[rng.integers(0, n, size=int(dups.sum()))]
    X[:, rng.random(m) < zero_share] = 0.0
    full = pairwise_distances(X).view(np.uint64)
    np.testing.assert_array_equal(full, pairwise_rows(X).view(np.uint64))
    for t in range(n + 1):
        extended = pairwise_distances(X, known=pairwise_distances(X[:t]))
        np.testing.assert_array_equal(extended.view(np.uint64), full)


def test_clustering_results_hold_read_only_arrays():
    X = np.random.default_rng(5).normal(size=(12, 2))
    g = build_knn_graph(X, 3)
    dm = compute_density(g)
    forest = cluster_ift(g, dm)
    held = (*g.neighbors, *g.distances, dm.rho,
            forest.cost, forest.pred, forest.cluster_id, forest.roots)
    for arr in held:
        assert not arr.flags.writeable
        assert not np.shares_memory(arr, X)
    # built by hand from writable arrays, each type still holds its own copies
    neighbors = (np.array([1]), np.array([0]))
    distances = (np.array([2.0]), np.array([2.0]))
    rho, cost, pred = np.array([0.5, 0.5]), np.array([0.5, 0.5]), np.array([-1, 0])
    cid, roots = np.array([0, 0]), np.array([0])
    g = KnnGraph(1, neighbors, distances)
    dm = DensityMap(rho, 1.0, 0.1)
    forest = ClusterForest(cost, pred, cid, roots)
    args = (*neighbors, *distances, rho, cost, pred, cid, roots)
    held = (*g.neighbors, *g.distances, dm.rho,
            forest.cost, forest.pred, forest.cluster_id, forest.roots)
    for arg, arr in zip(args, held):
        assert arg.flags.writeable
        assert not arr.flags.writeable
        assert not np.shares_memory(arr, arg)
        np.testing.assert_array_equal(arr, arg)


def test_graph_and_forest_derive_d_max_and_num_clusters():
    X = np.random.default_rng(6).normal(size=(15, 2))
    g, _, forest = forest_for(X, 3)
    assert g.d_max == max(float(d.max()) for d in g.distances)
    assert forest.num_clusters == forest.roots.size
    with pytest.raises(TypeError):
        KnnGraph(g.k, g.neighbors, g.distances, g.d_max)
    with pytest.raises(TypeError):
        ClusterForest(forest.cost, forest.pred, forest.cluster_id, forest.roots, 3)
    with pytest.raises(TypeError):
        KnnGraph(g.k, g.neighbors, g.distances, d_max=0.5)
    with pytest.raises(TypeError):
        ClusterForest(forest.cost, forest.pred, forest.cluster_id, forest.roots, num_clusters=3)


def forest_for(X, k):
    g = build_knn_graph(X, k)
    dm = compute_density(g)
    return g, dm, cluster_ift(g, dm)


def test_knn_collinear_symmetrization():
    X = np.array([[0.0], [1.0], [2.0]])
    g = build_knn_graph(X, 1)
    # ends point at the middle; symmetrization gives the middle both ends
    assert set(g.neighbors[1]) == {0, 2}
    assert set(g.neighbors[0]) == {1}
    assert set(g.neighbors[2]) == {1}


def test_knn_complete_graph_and_dmax():
    rng = np.random.default_rng(21)
    X = rng.normal(size=(7, 3))
    g = build_knn_graph(X, 6)
    for i in range(7):
        assert set(g.neighbors[i]) == set(range(7)) - {i}
    expected = max(
        math.dist(X[i], X[j]) for i, j in itertools.combinations(range(7), 2)
    )
    assert g.d_max == pytest.approx(expected, rel=1e-12)


def test_knn_adjacency_matches_brute_force():
    rng = np.random.default_rng(22)
    X = rng.normal(size=(10, 2))
    for k in (1, 2, 3, 5):
        g = build_knn_graph(X, k)
        oracle = symmetrize(brute_force_knn(X, k))
        for i in range(10):
            assert set(g.neighbors[i]) == oracle[i]


def test_knn_every_node_keeps_at_least_k_neighbors():
    rng = np.random.default_rng(23)
    X = rng.normal(size=(12, 2))
    g = build_knn_graph(X, 3)
    assert all(len(nb) >= 3 for nb in g.neighbors)
    # arc distances are symmetric where both arcs exist
    for i in range(12):
        for j, d in zip(g.neighbors[i], g.distances[i]):
            pos = list(g.neighbors[j]).index(i)
            assert g.distances[j][pos] == d


def test_knn_errors():
    X = np.zeros((3, 2))
    with pytest.raises(ValueError):
        build_knn_graph(X, 3)
    with pytest.raises(ValueError):
        build_knn_graph(np.array([[np.nan, 0.0], [0.0, 1.0]]), 1)


def test_density_symmetric_pair():
    X = np.array([[0.0], [2.0]])
    g = build_knn_graph(X, 1)
    dm = compute_density(g)
    assert dm.rho[0] == dm.rho[1]
    assert dm.sigma == pytest.approx(2.0 / 3.0)


def test_density_monotone_in_neighbor_distance():
    X = np.array([[0.0], [0.1], [10.0], [11.0]])
    g = build_knn_graph(X, 1)
    dm = compute_density(g)
    assert dm.rho[0] > dm.rho[2]
    assert dm.rho[1] > dm.rho[3]


def test_density_matches_direct_evaluation():
    rng = np.random.default_rng(24)
    X = rng.normal(size=(6, 2))
    k = 2
    g = build_knn_graph(X, k)
    dm = compute_density(g)
    sigma = g.d_max / 3.0
    for i in range(6):
        total = 0.0
        for j in g.neighbors[i]:
            d = math.dist(X[i], X[j])
            total += math.exp(-d / (2.0 * sigma * sigma))
        expected = total / (k * math.sqrt(2.0 * math.pi * sigma * sigma))
        assert dm.rho[i] == pytest.approx(expected, rel=1e-12)


def test_density_delta_is_minimal_adjacent_gap():
    rng = np.random.default_rng(26)
    X = rng.normal(size=(8, 2))
    g = build_knn_graph(X, 2)
    dm = compute_density(g)
    gaps = [
        abs(dm.rho[i] - dm.rho[j])
        for i in range(8)
        for j in g.neighbors[i]
        if dm.rho[i] != dm.rho[j]
    ]
    assert dm.delta == min(gaps)
    assert dm.delta > 0


def test_all_identical_points_single_cluster():
    X = np.zeros((5, 2))
    g = build_knn_graph(X, 2)
    dm = compute_density(g)
    assert len(set(dm.rho)) == 1  # uniform density by construction
    forest = cluster_ift(g, dm)
    assert forest.num_clusters == 1
    assert len(forest.roots) == 1


def test_two_tight_pairs_two_clusters():
    X = np.array([[0.0, 0.0], [0.1, 0.0], [50.0, 0.0], [50.1, 0.0]])
    g, dm, forest = forest_for(X, 1)
    assert forest.num_clusters == 2
    assert forest.cluster_id[0] == forest.cluster_id[1]
    assert forest.cluster_id[2] == forest.cluster_id[3]
    assert forest.cluster_id[0] != forest.cluster_id[2]
    roots = set(int(r) for r in forest.roots)
    assert len(roots & {0, 1}) == 1
    assert len(roots & {2, 3}) == 1
    # cost map agrees with full path enumeration
    oracle = cluster_cost_dfs(g.neighbors, dm.rho, dm.delta, forest.roots)
    np.testing.assert_allclose(forest.cost, oracle, atol=1e-12)


def test_cost_map_matches_exhaustive_oracles_small_random():
    rng = np.random.default_rng(27)
    for _ in range(25):
        n = int(rng.integers(4, 9))
        m = int(rng.integers(1, 4))
        k = int(rng.integers(1, min(4, n)))
        X = rng.normal(size=(n, m))
        g, dm, forest = forest_for(X, k)
        dfs = cluster_cost_dfs(g.neighbors, dm.rho, dm.delta, forest.roots)
        closure = cluster_cost_closure(g.neighbors, dm.rho, dm.delta, forest.roots)
        np.testing.assert_allclose(dfs, closure, atol=0)  # oracles agree exactly
        np.testing.assert_allclose(forest.cost, dfs, atol=1e-9)


def test_cost_map_matches_oracle_on_plateaus():
    # integer lattices force duplicate points, tied distances and density
    # plateaus: the regime where FIFO ties and the delta handicap matter
    rng = np.random.default_rng(123)
    for _ in range(80):
        n = int(rng.integers(4, 9))
        m = int(rng.integers(1, 3))
        k = int(rng.integers(1, min(4, n)))
        X = rng.integers(0, 3, size=(n, m)).astype(float)
        g, dm, forest = forest_for(X, k)
        oracle = cluster_cost_closure(g.neighbors, dm.rho, dm.delta, forest.roots)
        np.testing.assert_allclose(forest.cost, oracle, atol=1e-9)


def test_forest_invariants_random():
    rng = np.random.default_rng(28)
    for _ in range(10):
        n = int(rng.integers(6, 30))
        X = rng.normal(size=(n, 2))
        k = int(rng.integers(1, 5))
        g, dm, forest = forest_for(X, k)
        roots = set(int(r) for r in forest.roots)
        assert forest.num_clusters == len(roots)
        for r in roots:
            assert forest.pred[r] == -1
            assert forest.cost[r] == dm.rho[r]
        for i in range(n):
            # predecessor chain reaches a root in <= n steps, labels agree
            steps, node = 0, i
            while forest.pred[node] != -1:
                node = int(forest.pred[node])
                steps += 1
                assert steps <= n
            assert node in roots
            assert forest.cluster_id[i] == forest.cluster_id[node]
            assert forest.cost[i] <= dm.rho[node]  # root density dominates
            if forest.pred[i] != -1:
                p = int(forest.pred[i])
                assert forest.cost[i] == min(forest.cost[p], dm.rho[i])


def _forest_with_labels(labels):
    labels = np.asarray(labels, dtype=np.intp)
    c = int(labels.max()) + 1
    roots = np.array([int(np.flatnonzero(labels == ci)[0]) for ci in range(c)], dtype=np.intp)
    return ClusterForest(np.zeros(len(labels)), np.full(len(labels), -1, dtype=np.intp),
                         labels, roots)


def test_normalized_cut_single_cluster_zero():
    rng = np.random.default_rng(29)
    X = rng.normal(size=(6, 2))
    g = build_knn_graph(X, 2)
    assert normalized_cut(g, _forest_with_labels([0] * 6)) == 0.0


def test_normalized_cut_prefers_the_natural_split():
    # two tight triples joined by one long arc
    X = np.array([[0.0, 0], [1.0, 0], [0.5, 0.8], [30.0, 0], [31.0, 0], [30.5, 0.8]])
    g = build_knn_graph(X, 2)
    natural = normalized_cut(g, _forest_with_labels([0, 0, 0, 1, 1, 1]))
    for mask in range(1, 2**6 - 1):
        labels = [(mask >> i) & 1 for i in range(6)]
        if labels == [0, 0, 0, 1, 1, 1] or labels == [1, 1, 1, 0, 0, 0]:
            continue
        assert natural < normalized_cut(g, _forest_with_labels(labels))


def test_normalized_cut_bounds():
    rng = np.random.default_rng(30)
    X = rng.normal(size=(12, 2))
    g, dm, forest = forest_for(X, 2)
    cut = normalized_cut(g, forest)
    assert 0.0 <= cut <= forest.num_clusters


def test_sweep_range_errors():
    X = np.zeros((4, 1))
    for k_max in (0, 4):
        with pytest.raises(ValueError, match="k_max must satisfy"):
            sweep_normalized_cuts(X, k_max)


def test_sweep_matches_independent_build():
    rng = np.random.default_rng(34)
    X = rng.normal(size=(12, 3))
    cuts, forests = sweep_normalized_cuts(X, 5)
    for k in range(1, 6):
        g = build_knn_graph(X, k)
        dm = compute_density(g)
        ref = cluster_ift(g, dm)
        np.testing.assert_array_equal(forests[k - 1].cluster_id, ref.cluster_id)
        np.testing.assert_allclose(forests[k - 1].cost, ref.cost, atol=0)
        assert cuts[k - 1] == normalized_cut(g, ref)


def _assert_ift_matches_reference(X, ks):
    for k in ks:
        g = build_knn_graph(X, k)
        dm = compute_density(g)
        got, ref = cluster_ift(g, dm), cluster_ift_reference(g, dm)
        np.testing.assert_array_equal(got.cost.view(np.uint64), ref.cost.view(np.uint64))
        for name in ("pred", "cluster_id", "roots"):
            a, b = getattr(got, name), getattr(ref, name)
            assert a.dtype == b.dtype == np.intp
            np.testing.assert_array_equal(a, b)
        assert got.num_clusters == ref.num_clusters


@given(st.integers(0, 2**31 - 1), st.integers(2, 30), st.integers(1, 3), st.sampled_from([0, 1]))
def test_cluster_ift_equals_numpy_reference_for_every_k(seed, n, m, decimals):
    # coarse rounding gives duplicate points, tied distances and density
    # plateaus, so the FIFO tie order decides roots and predecessors
    rng = np.random.default_rng(seed)
    X = np.round(rng.normal(size=(n, m)) * 1.5, decimals)
    _assert_ift_matches_reference(X, range(1, n))


def test_cluster_ift_equals_numpy_reference_on_four_rounded_blobs():
    rng = np.random.default_rng(35)
    centers = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0], [0.0, 3.0, 0.0], [0.0, 0.0, 3.0]])
    X = np.round(np.vstack([c + rng.normal(size=(18, 3)) * 0.6 for c in centers]), 1)
    _assert_ift_matches_reference(X, (1, 2, 3, 5, 8, 13, 21, 34, 55, 71))
