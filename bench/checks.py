"""Output checks on what the traced compare captured.

Every check compares against a computation made here or a property the
method must have, never against stored output. Each returns a list of
(trial id or None, problem) pairs; a trial with a problem counts as failed,
and a problem with no trial marks the whole run incorrect.
"""

from __future__ import annotations

import heapq
import json
from fractions import Fraction
from pathlib import Path

import numpy as np

# classifier fits and sampler calls checked per run, spread evenly over the compare
FIT_SAMPLES = 8
SAMPLER_SAMPLES = 30
SEGMENT_TOL = 1e-9
COST_RTOL = 1e-12


def distances(X: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix, one row at a time."""
    X = np.asarray(X, dtype=np.float64)
    out = np.empty((len(X), len(X)))
    for i in range(len(X)):
        out[i] = np.sqrt(((X - X[i]) ** 2).sum(axis=1))
    np.fill_diagonal(out, 0.0)
    return out


def _spread(n: int, count: int) -> list[int]:
    """Up to ``count`` indices in range(n), evenly spaced, first and last included."""
    return sorted(set(np.linspace(0, n - 1, min(count, n)).astype(int).tolist()))


def reports(timed_dirs: list[Path], traced_dir: Path, methods) -> list:
    """Byte-identical report files, and one shared seed sequence per trial."""
    problems = []
    names = sorted(p.name for p in traced_dir.iterdir())
    for d in timed_dirs:
        if sorted(p.name for p in d.iterdir()) != names:
            problems.append((None, f"{d.name}: report file set differs from the traced run"))
            continue
        for name in names:
            if (d / name).read_bytes() != (traced_dir / name).read_bytes():
                problems.append((None, f"{d.name}/{name} differs from the traced run"))
    seeds = {}
    for m in methods:
        report = json.loads((traced_dir / f"{m}_report.json").read_text())
        seeds[m] = [t["seed"] for t in report["trials"]]
    ref = seeds[methods[0]]
    for m, s in seeds.items():
        for trial, (a, b) in enumerate(zip(s, ref)):
            if a != b:
                problems.append((f"{m}/{trial}", f"seed {a} differs from {methods[0]}'s {b}"))
        if len(s) != len(ref):
            problems.append((None, f"{m}: {len(s)} trials, {methods[0]} has {len(ref)}"))
    return problems


def balance(traced_dir: Path, methods, split_counts: dict) -> list:
    """Oversampled training sets are balanced; `none` keeps the split's counts."""
    problems = []
    for m in methods:
        report = json.loads((traced_dir / f"{m}_report.json").read_text())
        for t in report["trials"]:
            tid = f"{m}/{t['trial']}"
            got = tuple(t["augmented_counts"])
            want = split_counts.get(tid)
            if m == "none":
                if got != want:
                    problems.append((tid, f"augmented counts {got}, training counts {want}"))
            elif got[0] != got[1]:
                problems.append((tid, f"augmented counts {got} are not balanced"))
    return problems


def _minimax_from(dist: np.ndarray, sources) -> np.ndarray:
    """Least over sources of the largest arc on a path, via a spanning tree.

    On a complete graph every minimax path can be taken along a minimum
    spanning tree (grown here by Prim's rule), so a search over the tree's
    n - 1 arcs gives the same costs as one over all pairs.
    """
    n = len(dist)
    adj = [[] for _ in range(n)]
    in_tree = np.zeros(n, dtype=bool)
    reach = dist[0].copy()
    link = np.zeros(n, dtype=np.intp)
    in_tree[0] = True
    reach[0] = np.inf
    for _ in range(n - 1):
        v = int(np.argmin(reach))
        adj[v].append(int(link[v]))
        adj[int(link[v])].append(v)
        in_tree[v] = True
        reach[v] = np.inf
        closer = (dist[v] < reach) & ~in_tree
        reach[closer] = dist[v][closer]
        link[closer] = v
    cost = np.full(n, np.inf)
    heap = []
    for s in sources:
        cost[s] = 0.0
        heap.append((0.0, int(s)))
    heapq.heapify(heap)
    while heap:
        c, u = heapq.heappop(heap)
        if c > cost[u]:
            continue
        for v in adj[u]:
            offer = max(c, dist[u, v])
            if offer < cost[v]:
                cost[v] = offer
                heapq.heappush(heap, (offer, v))
    return cost


def classifier(fits: list, predictions: list) -> list:
    """A sample of fits: path costs from the prototypes, and full-scan prediction."""
    problems = []
    probes = {}
    for model, X, labels in predictions:
        probes.setdefault(id(model), []).append((X, labels))
    for i in _spread(len(fits), FIT_SAMPLES):
        tid, model = fits[i]
        train = model.train_features_
        want = _minimax_from(distances(train), model.prototypes_)
        if not np.allclose(model.cost_, want, rtol=COST_RTOL, atol=0.0):
            bad = int(np.count_nonzero(~np.isclose(model.cost_, want, rtol=COST_RTOL, atol=0.0)))
            problems.append((tid, f"fit {i}: {bad} path costs differ from the prototype minimax"))
        for X, labels in probes.get(id(model), []):
            scan = np.empty(len(X), dtype=np.int64)
            for r in range(len(X)):
                d = np.sqrt(((train - X[r]) ** 2).sum(axis=1))
                scan[r] = model.assigned_label_[int(np.argmin(np.maximum(model.cost_, d)))]
            if not np.array_equal(scan, labels):
                problems.append((tid, f"fit {i}: predict_batch disagrees with a full scan "
                                      f"on {int(np.count_nonzero(scan != labels))} probes"))
    return problems


def clustering(samples: list) -> list:
    """Sampled cluster_ift calls: brute-force k-NN graph and the max-min fixed point."""
    problems = []
    for tid, X, g, dm, forest in samples:
        n, k = len(X), g.k
        dist = distances(X)
        adj = [set() for _ in range(n)]
        for i in range(n):
            order = [j for j in np.argsort(dist[i], kind="stable").tolist() if j != i]
            for j in order[:k]:
                adj[i].add(j)
                adj[j].add(i)
        for i in range(n):
            if g.neighbors[i].tolist() != sorted(adj[i]):
                problems.append((tid, f"k={k}: node {i} adjacency differs from brute-force k-NN"))
                break
            if not np.array_equal(g.distances[i], dist[i, g.neighbors[i]]):
                problems.append((tid, f"k={k}: node {i} arc lengths differ"))
                break
        rho = dm.rho
        handicap = rho - dm.delta
        handicap[forest.roots] = rho[forest.roots]
        src = np.concatenate([np.full(len(nb), i) for i, nb in enumerate(g.neighbors)])
        dst = np.concatenate(g.neighbors)
        value = handicap.copy()
        while True:
            nxt = value.copy()
            np.maximum.at(nxt, dst, np.minimum(value[src], rho[dst]))
            if np.array_equal(nxt, value):
                break
            value = nxt
        if not np.array_equal(value, forest.cost):
            bad = int(np.count_nonzero(value != forest.cost))
            problems.append((tid, f"k={k}: {bad} IFT costs differ from the max-min fixed point"))
        cid = forest.cluster_id
        if not (np.array_equal(cid[forest.roots], np.arange(forest.num_clusters))
                and all(cid[j] == cid[p] for j, p in enumerate(forest.pred) if p >= 0)):
            problems.append((tid, f"k={k}: cluster labels do not follow the predecessor map"))
    return problems


def _on_segments(rows: np.ndarray, minority: np.ndarray, kappa: int) -> int:
    """Rows that lie on no segment from a minority row to one of its kappa nearest.

    Ties at the kappa-th distance admit every tied row as an end point.
    """
    dist = distances(minority)
    np.fill_diagonal(dist, np.inf)
    reach = np.sort(dist, axis=1)[:, kappa - 1]
    near = [np.flatnonzero(row <= r) for row, r in zip(dist, reach)]
    width = max(map(len, near))
    ends = np.array([np.resize(nb, width) for nb in near])  # (a, width), padded by repeats
    off = rows[:, None, :] - minority[None]  # (r, a, m)
    best = np.full(len(rows), np.inf)
    for j in range(width):
        step = minority[ends[:, j]] - minority  # (a, m)
        length = (step ** 2).sum(axis=1)
        u = np.clip((off * step).sum(axis=2) / np.where(length > 0, length, 1.0), 0.0, 1.0)
        gap = np.sqrt(((off - u[:, :, None] * step) ** 2).sum(axis=2))  # (r, a)
        best = np.minimum(best, gap.min(axis=1))
    return int(np.count_nonzero(best > SEGMENT_TOL))


def samplers(calls: list, allocations: list) -> list:
    """A sample of SMOTE-family calls: every row lies on a minority segment.

    Every o2pf allocation: per-cluster counts are a proportional split.
    """
    problems = []
    for i in _spread(len(calls), SAMPLER_SAMPLES):
        tid, kind, args, kwargs, rows = calls[i]
        if kind == "smote":
            minority, cfg = np.asarray(args[0]), args[2]
        else:
            X, y = np.asarray(args[0]), np.asarray(args[1])
            cfg = args[3] if kind == "borderline_smote" else args[2]
            minority = X[y == kwargs["minority_label"]]
        off = _on_segments(rows, minority, cfg.kappa)
        if off:
            problems.append((tid, f"{kind} kappa={cfg.kappa}: {off} rows off every segment"))
    for tid, sizes, n_new, plan in allocations:
        got = np.array(plan.per_cluster_counts)
        share = n_new * np.array(sizes, dtype=np.float64) / sum(sizes)
        if got.sum() != n_new or got.size != len(sizes) or np.abs(got - share).max() > 1.0:
            problems.append((tid, f"allocation {got.tolist()} is not a proportional split "
                                  f"of {n_new} over clusters {sizes}"))
    return problems


def _exact_p(diffs: list[float]) -> Fraction:
    """Two-sided exact signed-rank p-value, zero differences dropped, average ranks."""
    d = [x for x in diffs if x != 0]
    mags = sorted(abs(x) for x in d)
    rank = {}
    i = 0
    while i < len(mags):
        j = i
        while j < len(mags) and mags[j] == mags[i]:
            j += 1
        rank[mags[i]] = Fraction(i + 1 + j, 2)
        i = j
    ranks = [rank[abs(x)] for x in d]
    plus = sum(r for r, x in zip(ranks, d) if x > 0)
    w = min(plus, sum(ranks) - plus)
    # number of sign assignments per positive-rank sum
    dist = {Fraction(0): 1}
    for r in ranks:
        nxt = dict(dist)
        for s, c in dist.items():
            nxt[s + r] = nxt.get(s + r, 0) + c
        dist = nxt
    total = sum(ranks)
    hits = sum(c for s, c in dist.items() if min(s, total - s) <= w)
    return Fraction(hits, 2 ** len(d))


def wilcoxon(traced_dir: Path) -> list:
    """p-values with at most 20 nonzero pairs equal the exact null distribution."""
    problems = []
    cmp = json.loads((traced_dir / "comparison.json").read_text())
    vectors = {m["method"]: m["recall_vector"] for m in cmp["methods"]}
    best = vectors[cmp["best_method"]]
    for m in cmp["methods"]:
        diffs = [a - b for a, b in zip(m["recall_vector"], best)]
        n_eff = sum(1 for x in diffs if x != 0)
        if n_eff != m["n_effective"]:
            problems.append((None, f"{m['method']}: n_effective {m['n_effective']}, expected {n_eff}"))
            continue
        if n_eff > 20:
            continue
        want = 1.0 if n_eff < 5 else float(_exact_p(diffs))
        if m["p_value_vs_best"] != want:
            problems.append((None, f"{m['method']}: p {m['p_value_vs_best']!r}, exact {want!r}"))
    return problems
