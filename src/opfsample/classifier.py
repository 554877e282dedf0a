"""Supervised optimum-path forest classifier on a complete graph.

Prototypes are the endpoints of minimum-spanning-tree arcs that join the two
classes. A path costs its largest arc, and each training sample's cost is the
cheapest such path from a prototype. Under this cost the optimum-path forest
of the complete graph is a minimum spanning forest, so the costs come from two
linear passes over the order in which Prim's algorithm joins the nodes. Every
single-class subtree left by cutting the tree's cross-class arcs holds a
prototype of its own class, so each training sample keeps its own label.
Prediction evaluates the same cost for a new point against every training
sample.

Fits that share their leading training rows can share the distances among
those rows: ``fit`` takes them as ``known_dist`` and computes only the rest.
``fit`` is the one way a model gets its state: loading a JSON blob refits on
the stored rows and labels (O(n²)) and rejects a blob whose stored costs or
prototypes disagree with that fit.
"""

from __future__ import annotations

import json

import numpy as np

from .cluster import _row_distances, pairwise_distances
from .data import _frozen

SERIAL_FORMAT_VERSION = 2


def _prim(dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prim's algorithm on a complete graph from node 0; lowest index wins ties.

    Returns the nodes after the root in the order they join the tree, and
    each node's parent.
    """
    n = dist.shape[0]
    key = np.full(n, np.inf)
    key[0] = 0.0
    visited = np.zeros(n, dtype=bool)
    parent = np.zeros(n, dtype=np.intp)
    order = np.empty(n, dtype=np.intp)
    for step in range(n):
        u = int(np.argmin(key))
        order[step] = u
        visited[u] = True
        key[u] = np.inf  # so a tree node is never picked again
        better = (dist[u] < key) & ~visited
        key[better] = dist[u][better]
        parent[better] = u
    return order[1:], parent


def _tree_minimax_costs(dist: np.ndarray, joined, parent, sources: np.ndarray) -> np.ndarray:
    """Smallest largest-arc cost from ``sources`` to each node over Prim's tree.

    The children-to-parents pass gives the best path into each subtree; the
    parents-to-children pass adds the best path through the parent.
    """
    n = dist.shape[0]
    weight = dist[np.arange(n), parent].tolist()  # each node's arc to its parent
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
        it; only the remaining rows are computed, and the result is the same
        as without it. A block that is not square with t <= n raises
        ``ValueError``, and so does a distance that overflows to inf.
        """
        X = _frozen(X, np.float64)
        y = np.asarray(y)
        if X.ndim != 2 or y.shape != (X.shape[0],):
            raise ValueError("X must be n x m with a matching label vector")
        if not np.isin(y, (0, 1)).all():
            raise ValueError("labels must take values in {0, 1}")
        y = _frozen(y, np.int64)
        if np.isnan(X).any():
            raise ValueError("training features must not contain NaN")
        classes = np.unique(y)
        if classes.size != 2:
            raise ValueError("training requires samples from both classes")
        with np.errstate(over="ignore", invalid="ignore"):
            dist = pairwise_distances(X, known=known_dist)
        if not np.isfinite(dist).all():
            raise ValueError("training features must give finite pairwise distances")
        joined, parent = _prim(dist)
        cross = joined[y[joined] != y[parent[joined]]]
        prototypes = np.unique(np.concatenate([cross, parent[cross]]))
        cost = _tree_minimax_costs(dist, joined, parent, prototypes)

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

        A probe whose distance to a training sample is not finite (it
        overflows, or the probe holds inf) raises ``ValueError``, as in
        :meth:`fit`.
        """
        self._check_fitted()
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.train_features_.shape[1]:
            raise ValueError("batch shape does not match the training features")
        if np.isnan(X).any():
            raise ValueError("probes must not contain NaN")
        labels = np.empty(X.shape[0], dtype=np.int64)
        with np.errstate(over="ignore", invalid="ignore"):
            for r in range(X.shape[0]):
                d = _row_distances(self.train_features_, X[r])
                if not np.isfinite(d).all():
                    raise ValueError(f"probe {r} must give finite distances to training rows")
                vals = np.maximum(self.cost_, d)
                labels[r] = self.assigned_label_[int(np.argmin(vals))]
        return labels

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
        version = payload.get("format_version")
        if version != SERIAL_FORMAT_VERSION:
            raise ValueError(f"unsupported model format version: {version!r}")
        model = cls().fit(payload["train_features"], payload["train_labels"])
        for name in ("cost", "prototypes"):
            if not np.array_equal(getattr(model, f"{name}_"), payload[name]):
                raise ValueError(f"stored {name} disagrees with a fit on the stored rows and labels")
        return model
