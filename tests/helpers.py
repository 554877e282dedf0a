"""Independent oracles and fixture builders shared across the test suite.

Everything here deliberately avoids the library's own code paths: distances
are recomputed pairwise, path costs come from explicit path enumeration or
fixed-point closure, ranks and sign enumerations are written from scratch.
There are two exceptions. :func:`cluster_ift_reference` is the library's
clustering loop on numpy arrays, which pins its tie order bit for bit.
:func:`reference_trial` calls the library's stages (split, imputation, the
density and cut of a graph, the Gaussian draws, the classifier's fit) but
scales with its own expression, ranks neighbors by (distance, index) with
:func:`ranked_neighbors`, shares only its clustering sweep between grid
values, and takes its distances, samplers and predictions from the oracles
here.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

from opfsample.classifier import OpfClassifier
from opfsample.cluster import ClusterForest, KnnGraph, compute_density, normalized_cut
from opfsample.data import impute_mean, split
from opfsample.harness import TrialReport, derive_seed
from opfsample.metrics import score
from opfsample.oversample import (
    allocate,
    gaussians_from_forest,
    largest_remainder,
    synthesize_plan,
)


# --- geometry -----------------------------------------------------------


def brute_force_knn(X: np.ndarray, k: int) -> list[list[int]]:
    """k nearest neighbors per row via an all-pairs sort; ties by index."""
    n = len(X)
    out = []
    for i in range(n):
        cand = [(float(np.sqrt(((X[i] - X[j]) ** 2).sum())), j) for j in range(n) if j != i]
        cand.sort()
        out.append([j for _, j in cand[:k]])
    return out


def symmetrize(knn: list[list[int]]) -> list[set[int]]:
    adj = [set(row) for row in knn]
    for i, row in enumerate(knn):
        for j in row:
            adj[j].add(i)
    return adj


def pairwise_rows(X: np.ndarray) -> np.ndarray:
    """Full distance matrix, each row against every row in one numpy pass.

    Every cell sums its squared differences in feature order, as the library
    kernel does, so the two agree bit for bit.
    """
    X = np.asarray(X, dtype=np.float64)
    out = np.empty((len(X), len(X)))
    for i in range(len(X)):
        out[i] = np.sqrt(((X - X[i]) ** 2).sum(axis=1))
    np.fill_diagonal(out, 0.0)
    return out


def pairwise(X: np.ndarray) -> np.ndarray:
    n = len(X)
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                d[i, j] = float(np.sqrt(((X[i] - X[j]) ** 2).sum()))
    return d


# --- clustering cost oracles ---------------------------------------------


def cluster_cost_dfs(neighbors, rho, delta, roots) -> np.ndarray:
    """Max over every simple path (any start) of the min-density path value.

    Trivial paths are worth rho at roots and rho - delta elsewhere; extending
    a path by an arc takes the min with the new node's density. Exponential;
    keep n small.
    """
    n = len(rho)
    rootset = set(int(r) for r in roots)
    handicap = np.array([rho[i] if i in rootset else rho[i] - delta for i in range(n)])
    best = handicap.copy()

    def extend(i, value, visited):
        for j in neighbors[i]:
            j = int(j)
            if j in visited:
                continue
            v = min(value, rho[j])
            if v > best[j]:
                best[j] = v
            extend(j, v, visited | {j})

    for s in range(n):
        extend(s, handicap[s], {s})
    return best


def cluster_cost_closure(neighbors, rho, delta, roots) -> np.ndarray:
    """Same quantity as :func:`cluster_cost_dfs` via max-min fixed point."""
    n = len(rho)
    rootset = set(int(r) for r in roots)
    best = np.array([rho[i] if i in rootset else rho[i] - delta for i in range(n)])
    for _ in range(n):
        changed = False
        for i in range(n):
            for j in neighbors[i]:
                v = min(best[i], rho[int(j)])
                if v > best[int(j)]:
                    best[int(j)] = v
                    changed = True
        if not changed:
            break
    return best


def cluster_ift_reference(g, dm) -> ClusterForest:
    """Grow optimum-path trees from emergent density maxima, on numpy arrays.

    A bitwise reference for ``opfsample.cluster.cluster_ift``, which runs the
    same heap loop on Python lists: it pins the FIFO tie order, which the
    cost oracles above do not see.

    Every node starts with a handicap cost rho - delta and no predecessor.
    Nodes are removed in order of maximum current cost (FIFO on ties); the
    first time an unconquered node is removed it is promoted to a root with
    cost rho. A removed node offers each remaining neighbor j the value
    min(cost_i, rho_j), which conquers j whenever it strictly improves j's
    cost. Each conquered node inherits its conqueror's cluster.
    """
    rho = dm.rho
    n = g.n_nodes
    if rho.shape != (n,):
        raise ValueError("density map does not match the graph")
    cost = rho - dm.delta
    pred = np.full(n, -1, dtype=np.intp)
    cid = np.full(n, -1, dtype=np.intp)
    removed = np.zeros(n, dtype=bool)
    roots: list[int] = []

    counter = 0
    heap: list[tuple[float, int, int]] = []
    for i in range(n):
        heap.append((-cost[i], counter, i))
        counter += 1
    heapq.heapify(heap)

    while heap:
        neg, _, i = heapq.heappop(heap)
        if removed[i] or -neg != cost[i]:
            continue
        removed[i] = True
        if pred[i] == -1:
            cost[i] = rho[i]
            cid[i] = len(roots)
            roots.append(i)
        for j in g.neighbors[i]:
            if removed[j]:
                continue
            offer = min(cost[i], rho[j])
            if offer > cost[j]:
                cost[j] = offer
                pred[j] = i
                cid[j] = cid[i]
                heapq.heappush(heap, (-offer, counter, j))
                counter += 1

    cost.setflags(write=False)
    pred.setflags(write=False)
    cid.setflags(write=False)
    roots_arr = np.array(roots, dtype=np.intp)
    roots_arr.setflags(write=False)
    return ClusterForest(cost, pred, cid, roots_arr)


def ranked_neighbors(dist: np.ndarray, rows) -> np.ndarray:
    """Per row in ``rows``, the other indices ordered by (distance, index).

    The index is an explicit second sort key, so the order does not rest on
    the sort being stable.
    """
    rows = np.asarray(rows, dtype=np.intp)
    block = dist[rows]
    order = np.lexsort((np.broadcast_to(np.arange(block.shape[1]), block.shape), block))
    return order[order != rows[:, None]].reshape(rows.size, -1)


def reference_sweep(X: np.ndarray, k_max: int) -> tuple[np.ndarray, list[ClusterForest]]:
    """``sweep_normalized_cuts(X, k_max)`` on graphs built here.

    The graph at k symmetrizes every row's first k :func:`ranked_neighbors`,
    and each forest comes from :func:`cluster_ift_reference`.
    """
    dist = pairwise_rows(X)
    ranked = ranked_neighbors(dist, range(len(dist)))
    cuts, forests = [], []
    for k in range(1, k_max + 1):
        adj = symmetrize([row[:k] for row in ranked])
        neighbors = tuple(np.array(sorted(a), dtype=np.intp) for a in adj)
        distances = tuple(dist[i, nb] for i, nb in enumerate(neighbors))
        g = KnnGraph(k, neighbors, distances)
        forest = cluster_ift_reference(g, compute_density(g))
        cuts.append(normalized_cut(g, forest))
        forests.append(forest)
    return np.array(cuts), forests


# --- classifier cost oracles ---------------------------------------------


def classifier_cost_dfs(dist: np.ndarray, prototypes) -> np.ndarray:
    """Min over every simple path from a prototype of the max arc length."""
    n = dist.shape[0]
    best = np.full(n, np.inf)
    for r in prototypes:
        best[int(r)] = 0.0

    def extend(i, value, visited):
        for j in range(n):
            if j in visited:
                continue
            v = max(value, dist[i, j])
            if v < best[j]:
                best[j] = v
            extend(j, v, visited | {j})

    for r in prototypes:
        extend(int(r), 0.0, {int(r)})
    return best


def classifier_cost_closure(dist: np.ndarray, prototypes) -> np.ndarray:
    """Same quantity as :func:`classifier_cost_dfs` via min-max fixed point."""
    n = dist.shape[0]
    best = np.full(n, np.inf)
    best[list(map(int, prototypes))] = 0.0
    for _ in range(n):
        changed = False
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                v = max(best[i], dist[i, j])
                if v < best[j]:
                    best[j] = v
                    changed = True
        if not changed:
            break
    return best


def textbook_prim(dist) -> tuple[list[int], list[int]]:
    """Prim's algorithm from node 0 on plain lists.

    Each step joins the open node of smallest key, the lowest index on ties,
    and an open node's key and parent change only on a strictly shorter arc.
    Returns the nodes after the root in joining order, and every parent (the
    root's is 0).
    """
    n = len(dist)
    key = [float("inf")] * n
    key[0] = 0.0
    parent = [0] * n
    open_nodes = list(range(n))
    joined = []
    while open_nodes:
        u = min(open_nodes, key=lambda v: (key[v], v))
        open_nodes.remove(u)
        joined.append(u)
        for v in open_nodes:
            if dist[u][v] < key[v]:
                key[v] = dist[u][v]
                parent[v] = u
    return joined[1:], parent


def predict_full_scan(train_X, cost, assigned, x) -> int:
    """Reference prediction: no early exit, lowest index wins ties."""
    d = np.array([float(np.sqrt(((row - x) ** 2).sum())) for row in train_X])
    vals = np.maximum(cost, d)
    return int(assigned[int(np.argmin(vals))])


# --- statistics oracles ---------------------------------------------------


def average_ranks(values: np.ndarray) -> np.ndarray:
    """Average ranks (1-based) with ties sharing the mean of their positions."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def wilcoxon_oracle(a, b) -> tuple[float, float]:
    """(W, two-sided exact p) by enumerating all 2^n sign assignments."""
    d = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    d = d[d != 0]
    n = d.size
    ranks = average_ranks(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    w_minus = float(ranks[d < 0].sum())
    w = min(w_plus, w_minus)
    total = float(ranks.sum())
    hits = 0
    for signs in itertools.product((0.0, 1.0), repeat=n):
        s_plus = float(np.dot(signs, ranks))
        if min(s_plus, total - s_plus) <= w:
            hits += 1
    return w, hits / 2.0**n


def two_pass_covariance(rows: np.ndarray) -> np.ndarray:
    """Textbook unbiased sample covariance via an explicit outer-product sum."""
    rows = np.asarray(rows, dtype=np.float64)
    n, m = rows.shape
    mu = rows.sum(axis=0) / n
    acc = np.zeros((m, m))
    for r in rows:
        dev = (r - mu).reshape(-1, 1)
        acc += dev @ dev.T
    return acc / (n - 1)


# --- oversampling geometry -------------------------------------------------


def on_segment_between(points: np.ndarray, anchors: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """For each point, whether it lies on a segment between two anchor rows.

    Solves for the interpolation coefficient against every anchor pair and
    accepts when the projection residual is below ``tol`` and the coefficient
    sits in [0, 1] (up to tiny slack).
    """
    anchors = np.asarray(anchors, dtype=np.float64)
    pairs = list(itertools.combinations(range(len(anchors)), 2))
    a = anchors[[p[0] for p in pairs]]
    d = anchors[[p[1] for p in pairs]] - a
    l2 = (d * d).sum(axis=1)
    keep = l2 > 0
    a, d, l2 = a[keep], d[keep], l2[keep]

    out = np.zeros(len(points), dtype=bool)
    dup = np.zeros(len(points), dtype=bool)
    for lo in range(0, len(points), 2048):
        s = np.asarray(points[lo : lo + 2048], dtype=np.float64)
        t = ((s[:, None, :] - a[None, :, :]) * d[None, :, :]).sum(-1) / l2
        proj = a[None, :, :] + t[:, :, None] * d[None, :, :]
        resid = np.sqrt(((proj - s[:, None, :]) ** 2).sum(-1))
        ok = (resid <= tol) & (t >= -1e-9) & (t <= 1 + 1e-9)
        out[lo : lo + len(s)] = ok.any(axis=1)
        # coincident anchors: a point equal to an anchor also counts
        coincide = np.sqrt(((s[:, None, :] - anchors[None, :, :]) ** 2).sum(-1)) <= tol
        dup[lo : lo + len(s)] = coincide.any(axis=1)
    return out | dup


# --- dataset fixtures -------------------------------------------------------


def blob_dataset(rng: np.random.Generator, n_maj=90, n_min=30, m=4, sep=2.5):
    """Two Gaussian blobs with a majority/minority imbalance; returns (X, y)."""
    maj = rng.normal(0.0, 1.0, size=(n_maj, m))
    cen = np.zeros(m)
    cen[0] = sep
    mino = rng.normal(0.0, 1.0, size=(n_min, m)) * 0.8 + cen
    X = np.vstack([maj, mino])
    y = np.concatenate([np.zeros(n_maj, dtype=int), np.ones(n_min, dtype=int)])
    perm = rng.permutation(len(y))
    return X[perm], y[perm]


def write_dataset_csv(path, X, y, header=None, missing_cells=(), missing_token="?"):
    """Write a CSV with the label in the last column; exact float round-trip."""
    lines = []
    if header is not None:
        lines.append(",".join([*header, "label"]))
    missing = set(missing_cells)
    for i, row in enumerate(np.asarray(X, dtype=np.float64)):
        cells = [
            missing_token if (i, j) in missing else repr(float(v))
            for j, v in enumerate(row)
        ]
        cells.append(str(int(y[i])))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# --- the whole trial ---------------------------------------------------------


def _reference_interpolate(X, base, kappa, rng) -> np.ndarray:
    """Each base row of X stepped a uniform fraction toward one of its kappa nearest rows."""
    table = ranked_neighbors(pairwise_rows(X), range(len(X)))[:, :kappa]
    pick = rng.integers(0, kappa, base.size)
    u = rng.random((base.size, 1))
    return X[base] + u * (X[table[base, pick]] - X[base])


def _reference_smote_family(method, X, y, label, kappa, n_new, seed) -> np.ndarray:
    """SMOTE, Borderline-SMOTE (variant 1) or ADASYN, with the library's draw order.

    Borderline-SMOTE seeds at minority rows with at least kappa/2 but fewer
    than kappa majority rows among their kappa all-class neighbors; ADASYN
    allocates by each minority row's majority share. Either falls back to
    SMOTE when that leaves nothing to seed.
    """
    minority = X[y == label]
    rng = np.random.default_rng(seed)
    base = np.empty(0, dtype=np.intp)
    if method != "smote":
        ranked = ranked_neighbors(pairwise_rows(X), np.flatnonzero(y == label))
        counts = np.count_nonzero(y[ranked[:, :kappa]] != label, axis=1)
        if method == "borderline_smote":
            danger = np.flatnonzero((counts >= kappa / 2.0) & (counts < kappa))
            if danger.size:
                base = danger[rng.integers(0, danger.size, n_new)]
        elif counts.any():
            share = counts / kappa
            per_row = largest_remainder(share / share.sum() * n_new, n_new)
            base = np.repeat(np.arange(per_row.size), per_row)
    if not base.size:  # SMOTE, or a fallback to it
        base = rng.integers(0, len(minority), n_new)
    return _reference_interpolate(minority, base, kappa, rng)


def _reference_rows(method, train, g, n_new, seed, sweep) -> np.ndarray:
    """``n_new`` synthetic minority rows for grid value ``g``.

    O²PF reads the first ``g`` entries of ``sweep``, the trial's
    :func:`reference_sweep`; its graph at k does not depend on how far it runs.
    """
    X, y, label = train.features, train.labels, train.minority_label
    if method != "o2pf":
        return _reference_smote_family(method, X, y, label, g, n_new, seed)
    minority = X[y == label]
    cuts, forests = sweep[0][:g], sweep[1][:g]
    clusters = gaussians_from_forest(minority, forests[int(np.argmin(cuts))])
    return synthesize_plan(clusters, allocate(clusters, n_new), seed)


def _reference_fit_and_score(method, train, g, n_new, seed, part, sweep):
    """Augment ``train`` for ``g``, fit on oracle distances, score ``part`` by full scan.

    One :func:`pairwise_rows` pass over the training rows and the probes
    gives both the training block and every probe's distances.
    """
    X, y = train.features, train.labels
    if g is not None and n_new > 0:
        rows = _reference_rows(method, train, g, n_new, derive_seed(seed, g), sweep)
        X = np.vstack([X, rows])
        y = np.concatenate([y, np.full(len(rows), train.minority_label)])
    n = len(X)
    dist = pairwise_rows(np.vstack([X, part.features]))
    model = OpfClassifier().fit(X, y, known_dist=dist[:n, :n])
    # full scan: the lowest index wins ties
    labels = model.assigned_label_[np.argmin(np.maximum(model.cost_, dist[n:, :n]), axis=1)]
    n1 = int(np.count_nonzero(y == 1))
    return score(part.labels, labels, part.minority_label), (len(y) - n1, n1)


def reference_trial(cfg, dataset, seed: int, trial: int = 0) -> TrialReport:
    """``run_trial(cfg, seed, trial=trial, dataset=dataset)``, computed from scratch.

    Every partition is scaled by the training partition's mean and sample
    std (a zero std divides by 1). One reference clustering sweep serves
    every grid value; each grid value gets its own sampler call, its own
    distance matrix and its own full-scan predictions. The first grid value
    of highest validation recall wins, and its set is built and fitted again
    to score the test partition.
    """
    train_raw, val_raw, test_raw = split(dataset, seed)
    train, (val, test) = impute_mean(train_raw, [val_raw, test_raw])
    mean, std = train.features.mean(axis=0), train.features.std(axis=0, ddof=1)
    train, val, test = (
        p.with_features((p.features - mean) / np.where(std == 0, 1, std))
        for p in (train, val, test)
    )
    n_min = train.class_counts[train.minority_label]
    n_maj = train.class_counts[1 - train.minority_label]
    if cfg.balance_mode == "balance_to_majority":
        n_new = max(0, n_maj - n_min)
    else:
        n_new = round(cfg.ratio * n_min)
    grid = cfg.effective_grid
    if n_new > 0:
        grid = tuple(sorted({min(g, n_min - 1) for g in grid}))
    sweep = None
    if cfg.method == "o2pf" and grid and n_new > 0:
        sweep = reference_sweep(train.features[train.labels == train.minority_label], max(grid))
    trace = tuple(
        (g, _reference_fit_and_score(cfg.method, train, g, n_new, seed, val, sweep)[0].recall)
        for g in grid
    )
    best = max((r for _, r in trace), default=None)
    chosen = next((g for g, r in trace if r == best), None)
    scores, counts = _reference_fit_and_score(cfg.method, train, chosen, n_new, seed, test,
                                              sweep)
    return TrialReport(trial, seed, chosen, scores.recall, scores.accuracy, scores.f1, trace,
                       counts)
