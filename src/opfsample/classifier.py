"""Supervised optimum-path forest classifier on a complete graph.

Prototypes are the endpoints of minimum-spanning-tree arcs that join the two
classes. Starting from cost 0 at the prototypes, a competition propagates
path costs where a path costs its largest arc; each training sample inherits
the label of the prototype whose tree conquered it. Prediction evaluates the
same cost for a new point against every training sample, scanning in
ascending training-cost order with an early exit.

Fits that share their leading training rows can share the distances among
those rows: ``fit`` takes them as ``known_dist`` and computes only the rest.
"""

from __future__ import annotations

import json

import numpy as np

from .cluster import pairwise_distances

SERIAL_FORMAT_VERSION = 1


def _minimum_spanning_edges(dist: np.ndarray) -> list[tuple[int, int]]:
    """Prim's algorithm on a complete graph; deterministic index tie-breaks."""
    n = dist.shape[0]
    visited = np.zeros(n, dtype=bool)
    key = dist[0].copy()
    parent = np.zeros(n, dtype=np.intp)
    visited[0] = True
    edges: list[tuple[int, int]] = []
    for _ in range(n - 1):
        u = int(np.argmin(np.where(visited, np.inf, key)))
        visited[u] = True
        edges.append((int(parent[u]), u))
        better = (dist[u] < key) & ~visited
        key[better] = dist[u][better]
        parent[better] = u
    return edges


class OpfClassifier:
    """Optimum-path forest classifier for binary labels.

    Fitted attributes (all immutable arrays):

    - ``train_features_``, ``train_labels_``: the training data as given.
    - ``cost_``: per-sample optimum path cost (0 at prototypes).
    - ``assigned_label_``: label propagated by the competition.
    - ``order_``: sample indices sorted by ascending cost (processing order).
    - ``prototypes_``: sorted indices of the MST-elected prototypes.
    - ``pred_``: predecessor in the optimum path, -1 at prototypes.
    """

    def __init__(self):
        self.train_features_ = None
        self.train_labels_ = None
        self.cost_ = None
        self.assigned_label_ = None
        self.order_ = None
        self.prototypes_ = None
        self.pred_ = None

    def fit(self, X, y, known_dist=None) -> "OpfClassifier":
        """Train on ``X`` and binary labels ``y``.

        ``known_dist``, when given, must be the distance matrix of the first t
        rows of ``X`` as :func:`~opfsample.cluster.pairwise_distances` returns
        it; only the remaining rows are computed, and the result is the same
        as without it. A block that is not square with t <= n raises
        ``ValueError``.
        """
        X = np.array(X, dtype=np.float64)
        y = np.array(y, dtype=np.int64)
        if X.ndim != 2 or y.shape != (X.shape[0],):
            raise ValueError("X must be n x m with a matching label vector")
        if np.isnan(X).any():
            raise ValueError("training features must not contain NaN")
        classes = np.unique(y)
        if classes.size != 2:
            raise ValueError("training requires samples from both classes")
        n = X.shape[0]
        dist = pairwise_distances(X, known=known_dist)

        protos = set()
        for a, b in _minimum_spanning_edges(dist):
            if y[a] != y[b]:
                protos.add(a)
                protos.add(b)
        prototypes = np.array(sorted(protos), dtype=np.intp)

        cost = np.full(n, np.inf)
        assigned = np.full(n, -1, dtype=np.int64)
        pred = np.full(n, -1, dtype=np.intp)
        cost[prototypes] = 0.0
        assigned[prototypes] = y[prototypes]
        processed = np.zeros(n, dtype=bool)
        order = np.empty(n, dtype=np.intp)
        for step in range(n):
            i = int(np.argmin(np.where(processed, np.inf, cost)))
            processed[i] = True
            order[step] = i
            offers = np.maximum(cost[i], dist[i])
            better = (offers < cost) & ~processed
            cost[better] = offers[better]
            assigned[better] = assigned[i]
            pred[better] = i

        for arr in (X, y, cost, assigned, order, prototypes, pred):
            arr.setflags(write=False)
        self.train_features_ = X
        self.train_labels_ = y
        self.cost_ = cost
        self.assigned_label_ = assigned
        self.order_ = order
        self.prototypes_ = prototypes
        self.pred_ = pred
        return self

    def _check_fitted(self):
        if self.cost_ is None:
            raise ValueError("classifier is not fitted")

    def _check_probe(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.train_features_.shape[1],):
            raise ValueError(
                f"probe has shape {x.shape}, expected ({self.train_features_.shape[1]},)"
            )
        if np.isnan(x).any():
            raise ValueError("probe must not contain NaN")
        return x

    def predict(self, x) -> int:
        """Classify one sample, early-exiting once no later node can win.

        Equal path costs resolve toward the lowest training-node index,
        exactly as the full scan would.
        """
        self._check_fitted()
        x = self._check_probe(x)
        best_val = np.inf
        best_idx = -1
        for i in self.order_:
            i = int(i)
            if self.cost_[i] > best_val:
                break
            val = max(self.cost_[i], float(np.sqrt(((self.train_features_[i] - x) ** 2).sum())))
            if val < best_val or (val == best_val and i < best_idx):
                best_val = val
                best_idx = i
        return int(self.assigned_label_[best_idx])

    def predict_batch(self, X) -> np.ndarray:
        """Full-scan prediction for a batch; ties go to the lowest index."""
        self._check_fitted()
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.train_features_.shape[1]:
            raise ValueError("batch shape does not match the training features")
        if np.isnan(X).any():
            raise ValueError("probes must not contain NaN")
        labels = np.empty(X.shape[0], dtype=np.int64)
        for r in range(X.shape[0]):
            d = np.sqrt(((self.train_features_ - X[r]) ** 2).sum(axis=1))
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
            "assigned_label": self.assigned_label_.tolist(),
            "order": self.order_.tolist(),
            "prototypes": self.prototypes_.tolist(),
            "pred": self.pred_.tolist(),
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, blob: str) -> "OpfClassifier":
        payload = json.loads(blob)
        version = payload.get("format_version")
        if version != SERIAL_FORMAT_VERSION:
            raise ValueError(f"unsupported model format version: {version!r}")
        model = cls()
        arrays = {
            "train_features_": np.array(payload["train_features"], dtype=np.float64),
            "train_labels_": np.array(payload["train_labels"], dtype=np.int64),
            "cost_": np.array(payload["cost"], dtype=np.float64),
            "assigned_label_": np.array(payload["assigned_label"], dtype=np.int64),
            "order_": np.array(payload["order"], dtype=np.intp),
            "prototypes_": np.array(payload["prototypes"], dtype=np.intp),
            "pred_": np.array(payload["pred"], dtype=np.intp),
        }
        for name, arr in arrays.items():
            arr.setflags(write=False)
            setattr(model, name, arr)
        return model
