"""Supervised optimum-path forest classifier on a complete graph.

Prototypes are the endpoints of minimum-spanning-tree arcs that join the two
classes. A path costs its largest arc, and each training sample's cost is the
cheapest such path from a prototype. Under this cost the optimum-path forest
of the complete graph is a minimum spanning forest, so the costs come from two
linear passes over the order in which Prim's algorithm joins the nodes. Every
single-class subtree left by cutting the tree's cross-class arcs holds a
prototype of its own class, so each training sample keeps its own label.
Prediction scores a batch of probes at once: it takes the probes' distances
to every training sample as one block, raises each cell to that sample's cost,
and reads the label of each row's first minimum.

Fits that share their leading training rows can share the distances among
those rows: ``fit`` takes them as ``known_dist`` and computes only the rest.
Predictions for the same probes against such fits can share each probe's
distances to those rows in the same way: ``predict_batch`` takes them as
``known``.
``fit`` is the one way a model gets its state: loading a JSON blob refits on
the stored rows and labels (O(n²)) and rejects a blob whose stored costs or
prototypes disagree with that fit.
"""

from __future__ import annotations

import json

import numpy as np

from .cluster import distance_block, pairwise_distances
from .data import _frozen

SERIAL_FORMAT_VERSION = 2


def _prim(dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prim's algorithm on a complete graph from node 0; lowest index wins ties.

    Returns the nodes after the root in the order they join the tree, and
    each node's parent. The loop writes into preallocated arrays, since its
    per-step numpy calls dominate small fits.
    """
    n = dist.shape[0]
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
        np.copyto(key, row, where=better)
        np.copyto(parent, u, where=better)
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
        if not ((y == 0) | (y == 1)).all():
            raise ValueError("labels must take values in {0, 1}")
        y = _frozen(y, np.int64)
        if np.isnan(X).any():
            raise ValueError("training features must not contain NaN")
        classes = np.unique(y)
        if classes.size != 2:
            raise ValueError("training requires samples from both classes")
        with np.errstate(over="ignore", invalid="ignore"):
            dist = pairwise_distances(X, known=known_dist)
        # a NaN or inf cell wins the max (a distance is never -inf), and the
        # max needs no n x n temporary at the fit's memory peak
        if not np.isfinite(dist.max()):
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

    def predict_batch(self, X, known=None) -> np.ndarray:
        """Full-scan prediction for a batch; ties go to the lowest index.

        Each probe's value at a training sample is the larger of that
        sample's cost and their distance, and the probe takes the label of
        its smallest value.

        ``known``, when given, must hold each probe's distances to the first
        t training rows, as :func:`~opfsample.cluster.distance_block` gives
        them; only the remaining columns are computed, and the labels are the
        same as without it. A block that is not ``len(X)`` x t with t at most
        the training row count raises ``ValueError``.

        A probe whose distance to a training sample is not finite (it
        overflows, or the probe holds inf) raises ``ValueError`` naming the
        first such probe, as in :meth:`fit`; a known cell that is NaN or inf
        counts as one of those distances.
        """
        self._check_fitted()
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.train_features_.shape[1]:
            raise ValueError("batch shape does not match the training features")
        if np.isnan(X).any():
            raise ValueError("probes must not contain NaN")
        with np.errstate(over="ignore", invalid="ignore"):
            d = distance_block(self.train_features_, X, known)
        # as in fit, a NaN or inf cell wins its row's max, with no v x n temporary
        bad = np.flatnonzero(~np.isfinite(d.max(axis=1)))
        if bad.size:
            raise ValueError(f"probe {bad[0]} must give finite distances to training rows")
        np.maximum(self.cost_, d, out=d)
        return self.assigned_label_[d.argmin(axis=1)]

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
