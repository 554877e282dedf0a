"""Unsupervised optimum-path forest clustering on a k-nearest-neighbor graph.

Each sample gets a Gaussian kernel density estimated over its graph
neighborhood; a max-priority competition then grows one optimum-path tree per
emergent density maximum, so the number of clusters is never supplied by the
caller. The neighborhood size k is selected by minimizing a normalized cut
over a search range.

The package's exact Euclidean distances all come from this module:
:func:`pairwise_distances` for the square matrix of one set, each pair
computed once, :func:`distance_block` for probe rows against the rows of
another set, and :func:`row_distances` for any chosen cells. Each computes a
cell as the square root of its feature-ordered sum of squared differences, so
a pair gives the same float in all three.

Certified bounds. :func:`distance_bounds` and :func:`pairwise_lower_bounds`
bound those exact cells from one matrix product, so a caller computes exactly
only the cells a decision could read. With squared norms ``sa = ||a||²``,
``sb = ||b||²`` and ``g = a·b``, a cell's squared distance is
``sa + sb - 2g``. Every float dot product of length m, norms included, is
within ``γ_m`` times the sum of its absolute products of the real one, for
any summation order, blocking or FMA use (Higham, *Accuracy and Stability of
Numerical Algorithms*, 2nd ed., 2002, ch. 3), where ``γ_k = k·u / (1 - k·u)``
and ``u = 2⁻⁵³``. So the computed ``sa + sb - 2g``, with its own three
roundings, is within about ``(2m + 3)·u·(sa + sb)`` of the real squared
distance, and the exact expression's float sum is within
``2·γ_(m+2)·(sa + sb)`` of it. Both together stay below
``c·(sa + sb) + e`` with ``c = 8·γ_(m+4)``; ``e = 8·(m + 4)`` times the
smallest normal float covers every product that underflows, even where
subnormals flush to zero. The bounds are therefore
``(1 ∓ c)·(sa + sb) - 2g ∓ e``, written into the product's own cells in
place, raised to 0 and square rooted. A NaN cell (``inf - inf``) gets the
lower bound 0 and stays NaN as an upper bound, which callers read as no
bound. The square root is correctly rounded, hence monotone, so a bound on
the squared float is a bound on the exact distance itself. Every row that
enters a bound must be within the package's one row-size rule,
:func:`opfsample.data.squared_norms`: a squared norm of at most ``2¹⁰⁰⁰``,
so no bound term can overflow. The classifier rejects any other row before
it bounds.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .data import _integer, _own

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class KnnGraph:
    """Symmetrized k-NN adjacency with per-arc Euclidean distances.

    ``neighbors[i]`` lists adjacent node indices in ascending order;
    ``distances[i]`` is aligned with it. ``k`` is the nominal neighborhood
    size before symmetrization (symmetrization only ever adds arcs).
    ``d_max`` is the longest arc.
    """

    k: int
    neighbors: tuple[np.ndarray, ...]
    distances: tuple[np.ndarray, ...]
    d_max: float = field(init=False)

    def __post_init__(self):
        _own(self, neighbors=np.intp, distances=np.float64)
        object.__setattr__(self, "d_max", max(float(d.max()) for d in self.distances))

    @property
    def n_nodes(self) -> int:
        return len(self.neighbors)


@dataclass(frozen=True)
class DensityMap:
    """Per-node density scores plus the kernel width and the plateau gap delta."""

    rho: np.ndarray
    sigma: float
    delta: float

    def __post_init__(self):
        _own(self, rho=np.float64)


@dataclass(frozen=True)
class ClusterForest:
    """Result of the clustering competition.

    ``pred`` holds -1 for roots; ``roots[c]`` is the root node of cluster c,
    in promotion order, so ``cluster_id[roots[c]] == c``.
    """

    cost: np.ndarray
    pred: np.ndarray
    cluster_id: np.ndarray
    roots: np.ndarray
    num_clusters: int = field(init=False)

    def __post_init__(self):
        _own(self, cost=np.float64, pred=np.intp, cluster_id=np.intp, roots=np.intp)
        object.__setattr__(self, "num_clusters", int(self.roots.size))


def row_distances(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Exact Euclidean distance from ``x`` to each row of ``A``.

    ``x`` is one row, or as many rows as ``A``, each paired with the row of
    ``A`` at its index. A cell does not depend on the other rows, so it is the
    same float wherever it is computed.
    """
    return np.sqrt(((A - x) ** 2).sum(axis=1))


def distance_block(A: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Each row of ``P``'s exact distances to every row of ``A``, one row of the block each.

    Row r is :func:`row_distances` of ``P[r]``, bit for bit.
    """
    out = np.empty((P.shape[0], A.shape[0]))
    for r, p in enumerate(P):
        out[r] = row_distances(A, p)
    return out


def _with_known(X: np.ndarray, known) -> tuple[np.ndarray, int]:
    """A new n x n matrix for ``X``'s rows holding ``known`` in its top-left t x t corner, and t."""
    n = X.shape[0]
    out = np.empty((n, n), dtype=np.float64)
    if known is None:
        return out, 0
    known = np.asarray(known, dtype=np.float64)
    if known.ndim != 2 or known.shape[0] != known.shape[1] or known.shape[0] > n:
        raise ValueError(
            f"known distances must be a square t x t block with t <= {n}, "
            f"got shape {known.shape}"
        )
    t = known.shape[0]
    out[:t, :t] = known
    return out, t


def pairwise_distances(X: np.ndarray, known: np.ndarray | None = None) -> np.ndarray:
    """Exact Euclidean distance matrix; each pair is computed once.

    Row i is computed against rows 0..i only, as the square root of its
    feature-ordered sum of squared differences, and mirrored into column i.
    Negating a difference is exact, so every cell equals what a full
    row-by-row pass gives, bit for bit (no cancellation tricks).

    ``known`` may hold this function's own result on a prefix ``X[:t]``; that
    block is copied and only rows t..n-1 are computed.
    """
    X = np.asarray(X, dtype=np.float64)
    out, t = _with_known(X, known)
    for i in range(t, X.shape[0]):
        d = row_distances(X[: i + 1], X[i])
        out[i, : i + 1] = d
        out[:i, i] = d[:i]
    np.fill_diagonal(out, 0.0)
    return out


# The certified bounds (module docstring): c = _BOUND_FACTOR * gamma_(m+4), and
# the underflow term is _BOUND_FACTOR * (m + 4) smallest normal floats.
_BOUND_FACTOR = 8.0


def _bound_terms(m: int) -> tuple[float, float]:
    """(c, e) for m features: a computed squared distance is within c·(sa + sb) + e."""
    u = 2.0 ** -53
    k = m + 4
    return _BOUND_FACTOR * k * u / (1.0 - k * u), _BOUND_FACTOR * k * np.finfo(np.float64).tiny


def _bound_in_place(gram: np.ndarray, sq_rows: np.ndarray, sq_cols: np.ndarray, m: int,
                    side: float) -> None:
    """Turn products ``gram[i, j] = row_i · col_j`` into lower (side -1) or upper
    (side +1) bounds on the exact distances, in place."""
    c, e = _bound_terms(m)
    c, e = side * c, side * e
    with np.errstate(over="ignore", invalid="ignore"):
        gram *= -2.0
        gram += ((1.0 + c) * sq_rows + e)[:, np.newaxis]
        gram += (1.0 + c) * sq_cols
        # a NaN lower bound becomes 0 (fmax), and a NaN upper bound stays NaN
        # (maximum), which a caller reads as unbounded: neither hides a cell
        (np.fmax if side < 0 else np.maximum)(gram, 0.0, out=gram)
        np.sqrt(gram, out=gram)


def distance_bounds(A: np.ndarray, P: np.ndarray, sq_a: np.ndarray,
                    sq_p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds on :func:`distance_block` ``(A, P)``, cell by cell.

    ``sq_a`` and ``sq_p`` are the rows' :func:`~opfsample.data.squared_norms`,
    and every row must be within its limit. One matrix product gives both blocks.
    """
    lower = np.matmul(P, A.T)
    upper = lower.copy()
    _bound_in_place(lower, sq_p, sq_a, A.shape[1], -1.0)
    _bound_in_place(upper, sq_p, sq_a, A.shape[1], 1.0)
    return lower, upper


def pairwise_lower_bounds(X: np.ndarray, sq: np.ndarray,
                          known: np.ndarray | None = None) -> np.ndarray:
    """:func:`pairwise_distances` with every cell outside the known block a lower bound.

    ``known`` is exact and is copied in as in :func:`pairwise_distances`;
    rows t..n-1 get lower bounds against every row, written in place into
    the matrix's own rows, and are mirrored into columns t..n-1 above them.
    ``sq`` is ``X``'s :func:`~opfsample.data.squared_norms`, and every row
    must be within its limit.
    """
    X = np.asarray(X, dtype=np.float64)
    out, t = _with_known(X, known)
    rest = out[t:]
    np.matmul(X[t:], X.T, out=rest)
    _bound_in_place(rest, sq[t:], sq, X.shape[1], -1.0)
    out[:t, t:] = rest[:, :t].T
    return out


def _neighbor_order(dist: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """Other nodes sorted by distance, per row r of ``dist``, node ``rows[r]`` (default r).

    The sort is stable and each row's own index is dropped, so equal
    distances keep ascending index order.
    """
    n = dist.shape[1]
    rows = np.arange(n) if rows is None else np.asarray(rows, dtype=np.intp)
    order = np.argsort(dist, axis=1, kind="stable")
    return order[order != rows[:, None]].reshape(rows.size, n - 1)


def _checked_neighbor_order(X, k: int, name: str) -> tuple[np.ndarray, np.ndarray, int]:
    """Distances and neighbor order of ``X``, and ``k`` as a plain int.

    Checked first: ``k`` is an integer (:func:`opfsample.data._integer`) with
    ``1 <= k < n``, and every cell is finite.
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    k = _integer(k, name)
    if not 1 <= k < n:
        raise ValueError(f"{name} must satisfy 1 <= {name} < n, got {name}={k}, n={n}")
    if not np.isfinite(X).all():
        raise ValueError("clustering input must be finite")
    dist = pairwise_distances(X)
    return dist, _neighbor_order(dist), k


def _graph_from_prefix(dist: np.ndarray, order: np.ndarray, k: int) -> KnnGraph:
    n = dist.shape[0]
    adj = np.zeros((n, n), dtype=bool)
    adj[np.arange(n)[:, None], order[:, :k]] = True
    adj |= adj.T
    neighbors = tuple(np.flatnonzero(row) for row in adj)
    return KnnGraph(k, neighbors, tuple(dist[i, nb] for i, nb in enumerate(neighbors)))


def build_knn_graph(X: np.ndarray, k: int) -> KnnGraph:
    """Connect each sample to its k nearest neighbors, then symmetrize."""
    dist, order, k = _checked_neighbor_order(X, k, "k")
    return _graph_from_prefix(dist, order, k)


def compute_density(g: KnnGraph) -> DensityMap:
    """Gaussian kernel density over each node's (symmetrized) neighborhood.

    The kernel width is sigma = d_max / 3, the normalizer uses the nominal k
    and the exponent is -d / (2 sigma^2). delta is the smallest positive
    density gap across an arc.

    When every pairwise distance is zero the density is uniform by
    construction and a single cluster results downstream.
    """
    n = g.n_nodes
    if g.d_max == 0.0:
        sigma = float(np.finfo(np.float64).eps)
        rho = np.full(n, 1.0 / (SQRT_TWO_PI * sigma))
    else:
        sigma = g.d_max / 3.0
        coef = 1.0 / (g.k * SQRT_TWO_PI * sigma)
        denom = 2.0 * sigma * sigma
        rho = np.empty(n, dtype=np.float64)
        for i in range(n):
            rho[i] = coef * np.exp(-g.distances[i] / denom).sum()

    tails = np.repeat(np.arange(n), [nb.size for nb in g.neighbors])
    gaps = np.abs(rho[np.concatenate(g.neighbors)] - rho[tails])
    gaps = gaps[gaps > 0]
    # On a pure plateau any positive gap works, as long as rho - delta != rho.
    delta = float(gaps.min()) if gaps.size else max(1.0, 4.0 * float(np.spacing(rho.max())))
    return DensityMap(rho, float(sigma), float(delta))


def cluster_ift(g: KnnGraph, dm: DensityMap) -> ClusterForest:
    """Grow optimum-path trees from emergent density maxima.

    Every node starts with a handicap cost rho - delta and no predecessor.
    Nodes are removed in order of maximum current cost (FIFO on ties); the
    first time an unconquered node is removed it is promoted to a root with
    cost rho. A removed node offers each remaining neighbor j the value
    min(cost_i, rho_j), which conquers j whenever it strictly improves j's
    cost. Each conquered node inherits its conqueror's cluster.

    The competition runs on Python lists, which index far faster than numpy
    scalars; the handicaps are taken in numpy first, so every float is the
    same as in an all-numpy loop.
    """
    n = g.n_nodes
    if dm.rho.shape != (n,):
        raise ValueError("density map does not match the graph")
    rho = dm.rho.tolist()
    cost = (dm.rho - dm.delta).tolist()
    neighbors = [nb.tolist() for nb in g.neighbors]
    pred = [-1] * n
    cid = [-1] * n
    removed = [False] * n
    roots: list[int] = []

    heap = [(-c, i, i) for i, c in enumerate(cost)]
    heapq.heapify(heap)
    counter = n
    heappush, heappop = heapq.heappush, heapq.heappop

    while heap:
        neg, _, i = heappop(heap)
        if removed[i] or -neg != cost[i]:
            continue
        removed[i] = True
        if pred[i] == -1:
            cost[i] = rho[i]
            cid[i] = len(roots)
            roots.append(i)
        cost_i, cid_i = cost[i], cid[i]
        for j in neighbors[i]:
            if removed[j]:
                continue
            offer = min(cost_i, rho[j])
            if offer > cost[j]:
                cost[j] = offer
                pred[j] = i
                cid[j] = cid_i
                heappush(heap, (-offer, counter, j))
                counter += 1

    return ClusterForest(cost, pred, cid, roots)


def normalized_cut(g: KnnGraph, forest: ClusterForest) -> float:
    """Sum over clusters of external affinity over total affinity.

    Arc affinity is 1 / (1 + d), so heavier weight means closer samples. A
    single-cluster forest has no external arcs and scores 0. Each term lies
    in [0, 1], so the total lies in [0, num_clusters]. A forest whose
    ``cluster_id`` does not have one entry per node raises ``ValueError``.
    """
    cid = forest.cluster_id
    if cid.shape != (g.n_nodes,):
        raise ValueError("cluster forest does not match the graph")
    internal = np.zeros(forest.num_clusters, dtype=np.float64)
    external = np.zeros(forest.num_clusters, dtype=np.float64)
    for i in range(g.n_nodes):
        ci = cid[i]
        w = 1.0 / (1.0 + g.distances[i])
        same = cid[g.neighbors[i]] == ci
        internal[ci] += w[same].sum()
        external[ci] += w[~same].sum()
    total = internal + external
    with np.errstate(invalid="ignore", divide="ignore"):
        terms = np.where(total > 0, external / np.where(total > 0, total, 1.0), 0.0)
    return float(terms.sum())


def sweep_normalized_cuts(X: np.ndarray, k_max: int) -> tuple[np.ndarray, list[ClusterForest]]:
    """Cluster once per k in 1..k_max, up to the first zero normalized cut.

    A cut is never negative and the selection takes the first minimum, so no
    k after the first cut of exactly 0 can be selected for any search range
    that reaches it: the sweep stops there. ``cuts`` still has ``k_max``
    entries, and every k that was not clustered reads ``+inf``, so it can
    never be the first minimum of any prefix. ``forests`` holds only the
    computed forests, one per finite cut.

    The pairwise distances and the per-node neighbor ordering are computed
    once and shared, so the graph for every k is identical to what
    :func:`build_knn_graph` would produce.
    """
    dist, order, k_max = _checked_neighbor_order(X, k_max, "k_max")
    cuts = np.full(k_max, np.inf)
    forests: list[ClusterForest] = []
    for k in range(1, k_max + 1):
        g = _graph_from_prefix(dist, order, k)
        forest = cluster_ift(g, compute_density(g))
        cuts[k - 1] = normalized_cut(g, forest)
        forests.append(forest)
        if cuts[k - 1] == 0.0:
            break
    return cuts, forests
