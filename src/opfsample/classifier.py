"""Supervised optimum-path forest classifier on a complete graph.

Prototypes are the endpoints of minimum-spanning-tree arcs that join the two
classes. A path costs its largest arc, and each training sample's cost is the
cheapest such path from a prototype. Under this cost the optimum-path forest
of the complete graph is a minimum spanning forest, so the costs come from two
linear passes over the order in which Prim's algorithm joins the nodes. Every
single-class subtree left by cutting the tree's cross-class arcs holds a
prototype of its own class, so each training sample keeps its own label.
Prediction scores a batch of probes at once: each probe's value at a
training sample is the larger of that sample's cost and their distance, and
the probe takes the label of its row's first minimum.

Only the distances that can decide an output are computed exactly, with the
one exact expression of :mod:`opfsample.cluster`; every other cell is read
through certified lower and upper bounds from one matrix product
(:func:`~opfsample.cluster.distance_bounds`). Every output is bit for bit what
exact distances give:

- Prim reads a node's row, and computes a bounded cell exactly only when its
  lower bound is below the open node's key, the only case in which the cell
  could lower that key. Keys, and so the join weights the costs come from,
  are always exact.
- Prediction computes a probe's distance to training sample j only when
  max(cost_j, lower_j) is at most the row's least max(cost_j, upper_j), an
  upper bound on the row's minimum, and cost_j < upper_j: a cell with
  upper_j <= cost_j has the value cost_j whatever its distance.

Prediction always bounds. A fit may get its first t rows' exact distances as
``known_dist`` (the grid values of a trial share their training rows), and it
reads those cells as they are. Computing the other s = n - t rows exactly
costs s(t + s/2)m multiply-adds, against Prim's per-step overhead for
refining, which grows with n. So a fit
bounds those s rows only when that work per step, s(t + s/2)m / n, exceeds
``_CERTIFY_ABOVE``, and otherwise computes its whole matrix exactly with
:func:`~opfsample.cluster.pairwise_distances`.

Fit and prediction reject, with ``ValueError``, a row too large for the
package's one row-size rule (:func:`~opfsample.data.squared_norms`, a squared
norm of at most 2¹⁰⁰⁰), as standardization does. Every squared distance
between rows within it is at most 2¹⁰⁰², so no distance and no bound overflows.

``fit`` is the one way a model gets its state: loading a JSON blob refits on
the stored rows and labels (O(n²)) and rejects a blob whose stored costs or
prototypes disagree with that fit.
"""

from __future__ import annotations

import json

import numpy as np

from .cluster import distance_bounds, pairwise_distances, pairwise_lower_bounds, row_distances
from .data import _frozen, squared_norms

SERIAL_FORMAT_VERSION = 2
# A fit bounds its synthetic rows instead of computing them when the exact work
# per Prim step, s(t + s/2)m / n, exceeds this (crossover measured on 2 cores,
# one BLAS thread: see CHANGES.md).
_CERTIFY_ABOVE = 5000.0


def _certified_fit(n: int, t: int, m: int) -> bool:
    """Whether a fit of n rows of m features, the first t with known exact
    distances, bounds the other rows' distances."""
    s = n - t
    return s * (t + s / 2) * m > _CERTIFY_ABOVE * n


def _checked_norms(X: np.ndarray, name: str) -> np.ndarray:
    """``X``'s squared norms; the first row too large for the row-size rule
    raises ``ValueError`` naming it as ``name`` and its index."""
    sq, small = squared_norms(X)
    if not small.all():
        raise ValueError(
            f"{name} {int(np.argmin(small))} is too large: its squared norm exceeds 2**1000")
    return sq


def _prim(dist: np.ndarray, X: np.ndarray | None = None,
          exact: int | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Prim's algorithm on a complete graph from node 0; lowest index wins ties.

    Cells of ``dist`` inside its top-left ``exact`` x ``exact`` block (all of
    it by default) are exact distances; every other cell is a lower bound on
    the exact distance between those rows of ``X``. Such a cell is computed
    exactly, and written back, only when its bound is below the open node's
    key, so the tree is the one the exact matrix gives.

    Returns the nodes after the root in the order they join the tree, each
    node's parent, and each node's join weight: its exact distance to its
    parent (0 at the root), read from the parent's row, where every cell a
    key came from is exact. The loop writes into preallocated arrays, since
    its per-step numpy calls dominate small fits.
    """
    n = dist.shape[0]
    exact = n if exact is None else exact
    bounded = exact < n
    key = np.full(n, np.inf)
    key[0] = 0.0
    open_nodes = np.ones(n, dtype=bool)
    better = np.empty(n, dtype=bool)
    parent = np.zeros(n, dtype=np.intp)
    order = np.empty(n, dtype=np.intp)
    for step in range(n):
        u = int(key.argmin())
        order[step] = u
        open_nodes[u] = False
        key[u] = np.inf  # so a tree node is never picked again
        row = dist[u]
        np.less(row, key, out=better)
        better &= open_nodes
        if bounded:
            first = exact if u < exact else 0  # row u's cells from here on are bounds
            cells = np.flatnonzero(better[first:]) + first
            if cells.size:
                d = row_distances(X[cells], X[u])
                row[cells] = d
                better[cells] = d < key[cells]
        np.copyto(key, row, where=better)
        np.copyto(parent, u, where=better)
    return order[1:], parent, dist[parent, np.arange(n)]


def _tree_minimax_costs(weight: np.ndarray, joined, parent, sources: np.ndarray) -> np.ndarray:
    """Smallest largest-arc cost from ``sources`` to each node over Prim's tree.

    ``weight`` holds each node's arc to its parent. The children-to-parents
    pass gives the best path into each subtree; the parents-to-children pass
    adds the best path through the parent.
    """
    n = weight.shape[0]
    weight = weight.tolist()
    joined, parent = joined.tolist(), parent.tolist()
    cost = [np.inf] * n
    for s in sources.tolist():
        cost[s] = 0.0
    for u in reversed(joined):
        p = parent[u]
        cost[p] = min(cost[p], max(cost[u], weight[u]))
    for u in joined:
        cost[u] = min(cost[u], max(cost[parent[u]], weight[u]))
    return np.array(cost)


def _first_minima(A, P, sq_a, sq_p, cost) -> np.ndarray:
    """Each probe row's first index of least max(cost_j, d_j) over the rows of ``A``.

    Computes exactly only the cells that could hold a row's minimum (module
    docstring); ``sq_a`` and ``sq_p`` are the rows' squared norms, every one
    within the row-size rule.
    """
    lower, upper = distance_bounds(A, P, sq_a, sq_p)
    # a cell with upper_j <= cost_j has the value cost_j; a NaN bound is no bound
    refine = ~(upper <= cost)
    np.maximum(cost, upper, out=upper)
    least = np.fmin.reduce(upper, axis=1, initial=np.inf)
    del upper
    np.maximum(cost, lower, out=lower)
    rows, cols = np.nonzero(lower <= least[:, np.newaxis])
    value = cost[cols]
    pick = refine[rows, cols]
    value[pick] = np.maximum(value[pick], row_distances(A[cols[pick]], P[rows[pick]]))
    lower.fill(np.inf)
    lower[rows, cols] = value
    return lower.argmin(axis=1)


class OpfClassifier:
    """Optimum-path forest classifier for binary labels.

    Fitted attributes (all immutable arrays, set by :meth:`fit` alone):

    - ``train_features_``, ``train_labels_``: the training data as given.
    - ``cost_``: per-sample optimum path cost (0 at prototypes).
    - ``assigned_label_``: the label each training sample predicts with; every
      sample keeps its own, so this is ``train_labels_``.
    - ``prototypes_``: sorted indices of the MST-elected prototypes.
    """

    def fit(self, X, y, known_dist=None) -> "OpfClassifier":
        """Train on ``X`` and binary labels ``y``.

        ``known_dist``, when given, must be the distance matrix of the first t
        rows of ``X`` as :func:`~opfsample.cluster.pairwise_distances` returns
        it; those cells are read as they are, and the result is the same as
        without it. A block that is not square with t <= n raises
        ``ValueError``, and so does a row too large for the row-size rule
        (module docstring), named by its index.
        """
        X = _frozen(X, np.float64)
        y = np.asarray(y)
        if X.ndim != 2 or y.shape != (X.shape[0],):
            raise ValueError("X must be n x m with a matching label vector")
        if not ((y == 0) | (y == 1)).all():
            raise ValueError("labels must take values in {0, 1}")
        y = _frozen(y, np.int64)
        if np.isnan(X).any():
            raise ValueError("training features must not contain NaN")
        classes = np.unique(y)
        if classes.size != 2:
            raise ValueError("training requires samples from both classes")
        n, m = X.shape
        sq = _checked_norms(X, "training row")
        t = np.shape(known_dist)[0] if np.ndim(known_dist) == 2 else 0
        if _certified_fit(n, t, m):
            dist = pairwise_lower_bounds(X, sq, known_dist)
            exact = t
        else:
            dist = pairwise_distances(X, known=known_dist)
            exact = n
        joined, parent, weight = _prim(dist, X, exact)
        cross = joined[y[joined] != y[parent[joined]]]
        prototypes = np.unique(np.concatenate([cross, parent[cross]]))
        cost = _tree_minimax_costs(weight, joined, parent, prototypes)

        self.train_features_ = X
        self.train_labels_ = y
        self.cost_ = _frozen(cost)
        self.assigned_label_ = y
        self.prototypes_ = _frozen(prototypes)
        return self

    def _check_fitted(self):
        if not hasattr(self, "cost_"):
            raise ValueError("classifier is not fitted")

    def predict(self, x) -> int:
        """Classify one sample: :meth:`predict_batch` on a batch of one."""
        return int(self.predict_batch(np.asarray(x, dtype=np.float64)[np.newaxis])[0])

    def predict_batch(self, X) -> np.ndarray:
        """Full-scan prediction for a batch; ties go to the lowest index.

        Each probe's value at a training sample is the larger of that
        sample's cost and their distance, and the probe takes the label of
        its smallest value. Only the distances that could decide a label are
        computed exactly (module docstring).

        A probe too large for the row-size rule (module docstring), an inf
        among them, raises ``ValueError`` naming the first such probe, as in
        :meth:`fit`.
        """
        self._check_fitted()
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.train_features_.shape[1]:
            raise ValueError("batch shape does not match the training features")
        if np.isnan(X).any():
            raise ValueError("probes must not contain NaN")
        sq_p = _checked_norms(X, "probe")
        A = self.train_features_
        return self.assigned_label_[_first_minima(A, X, squared_norms(A)[0], sq_p, self.cost_)]

    def to_json(self) -> str:
        """Serialize the fitted model to a versioned JSON blob."""
        self._check_fitted()
        payload = {
            "format_version": SERIAL_FORMAT_VERSION,
            "train_features": self.train_features_.tolist(),
            "train_labels": self.train_labels_.tolist(),
            "cost": self.cost_.tolist(),
            "prototypes": self.prototypes_.tolist(),
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, blob: str) -> "OpfClassifier":
        payload = json.loads(blob)
        if not isinstance(payload, dict):
            raise ValueError(f"a model blob is a JSON object, got {type(payload).__name__}")
        version = payload.get("format_version")
        if version != SERIAL_FORMAT_VERSION:
            raise ValueError(f"unsupported model format version: {version!r}")
        missing = [k for k in ("train_features", "train_labels", "cost", "prototypes")
                   if k not in payload]
        if missing:
            raise ValueError(f"model blob lacks {', '.join(missing)}")
        try:
            model = cls().fit(payload["train_features"], payload["train_labels"])
        except TypeError as exc:  # a cell that is not a number, e.g. a JSON object
            raise ValueError(f"stored rows are not numeric: {exc}") from None
        for name in ("cost", "prototypes"):
            if not np.array_equal(getattr(model, f"{name}_"), payload[name]):
                raise ValueError(f"stored {name} disagrees with a fit on the stored rows and labels")
        return model
