"""Cluster-guided Gaussian oversampling of the minority class.

The minority samples are clustered with the unsupervised optimum-path forest
(the neighborhood size is selected automatically up to ``k_max``); each
cluster contributes a multivariate Gaussian fitted to its members, and
synthetic samples are drawn per cluster in proportion to cluster size.
Synthesis happens in whatever feature space the input lives in (the harness
passes standardized features) and the synthetic rows are appended after the
original rows, which stay untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cluster import ClusterForest, find_best_k
from .data import Dataset


@dataclass(frozen=True)
class ClusterGaussian:
    """Gaussian fitted to one cluster: mean, covariance, and its members."""

    mu: np.ndarray
    sigma_mat: np.ndarray
    count: int
    member_indices: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=np.float64)
        sig = np.asarray(self.sigma_mat, dtype=np.float64)
        m = mu.shape[0]
        if sig.shape != (m, m):
            raise ValueError("covariance shape does not match the mean")
        if not np.allclose(sig, sig.T, atol=1e-9):
            raise ValueError("covariance must be symmetric")
        members = np.asarray(self.member_indices, dtype=np.intp)
        if self.count != members.size or self.count < 1:
            raise ValueError("count must equal the number of member indices (>= 1)")
        for arr in (mu, sig, members):
            arr.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma_mat", sig)
        object.__setattr__(self, "count", int(self.count))
        object.__setattr__(self, "member_indices", members)


@dataclass(frozen=True)
class OversamplePlan:
    """How many synthetic samples each cluster contributes."""

    per_cluster_counts: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.per_cluster_counts)


def largest_remainder(shares: np.ndarray, total: int) -> np.ndarray:
    """Round nonnegative real shares to integers summing exactly to ``total``.

    Floors first, then hands out the remainder by descending fractional part;
    ties prefer the larger share, then the lower index.
    """
    shares = np.asarray(shares, dtype=np.float64)
    if total < 0:
        raise ValueError("total must be nonnegative")
    base = np.floor(shares).astype(np.int64)
    leftover = int(total - base.sum())
    if leftover < 0:
        raise ValueError("shares exceed the requested total")
    if leftover > shares.size:
        raise ValueError("shares undersum the requested total by more than rounding")
    frac = shares - base
    order = sorted(range(shares.size), key=lambda i: (-frac[i], -shares[i], i))
    for i in order[:leftover]:
        base[i] += 1
    return base


def gaussians_from_forest(minority_X: np.ndarray, forest: ClusterForest) -> list[ClusterGaussian]:
    """Fit one Gaussian per cluster of an already-computed forest.

    Covariances use the unbiased 1/(n_q - 1) normalization; singleton
    clusters get a zero covariance so synthesis emits copies of the point.
    """
    X = np.asarray(minority_X, dtype=np.float64)
    m = X.shape[1]
    out = []
    for c in range(forest.num_clusters):
        members = np.flatnonzero(forest.cluster_id == c)
        rows = X[members]
        mu = rows.mean(axis=0)
        if members.size == 1:
            sigma = np.zeros((m, m))
        else:
            centered = rows - mu
            sigma = centered.T @ centered / (members.size - 1)
            sigma = (sigma + sigma.T) / 2.0
        out.append(ClusterGaussian(mu, sigma, members.size, members))
    return out


def fit_minority_clusters(minority_X: np.ndarray, k_max: int) -> list[ClusterGaussian]:
    """Cluster the minority samples (best k up to ``k_max``) and fit Gaussians."""
    X = np.asarray(minority_X, dtype=np.float64)
    if X.shape[0] < 2:
        raise ValueError("need at least two minority samples to cluster")
    _, forest = find_best_k(X, k_max)
    return gaussians_from_forest(X, forest)


def allocate(clusters: list[ClusterGaussian], n_new: int) -> OversamplePlan:
    """Split ``n_new`` across clusters proportionally to their member counts."""
    if not clusters:
        raise ValueError("no clusters to allocate over")
    if n_new < 0:
        raise ValueError("n_new must be nonnegative")
    counts = np.array([cg.count for cg in clusters], dtype=np.float64)
    shares = n_new * counts / counts.sum()
    return OversamplePlan(tuple(int(v) for v in largest_remainder(shares, n_new)))


def synthesize(cg: ClusterGaussian, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` samples from the cluster Gaussian, deterministically.

    Sampling goes through the symmetric eigendecomposition of the covariance
    with negative eigenvalues clamped to zero, so rank-deficient covariances
    (common when a cluster has fewer members than features) are handled
    without a factorization failure.
    """
    m = cg.mu.shape[0]
    if count < 0:
        raise ValueError("count must be nonnegative")
    if count == 0:
        return np.empty((0, m))
    rng = np.random.default_rng(seed)
    eigvals, eigvecs = np.linalg.eigh(cg.sigma_mat)
    scale = eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))
    return cg.mu + rng.standard_normal((count, m)) @ scale.T


def synthesize_plan(clusters: list[ClusterGaussian], plan: OversamplePlan, seed: int) -> np.ndarray:
    """Draw the planned number of samples from every cluster.

    Each cluster uses a seed derived from (seed, cluster index), so the
    output does not depend on evaluation order and clusters could be sampled
    concurrently.
    """
    if len(plan.per_cluster_counts) != len(clusters):
        raise ValueError("plan does not match the cluster list")
    blocks = [
        synthesize(cg, cnt, np.random.SeedSequence(entropy=seed, spawn_key=(idx,)))
        for idx, (cg, cnt) in enumerate(zip(clusters, plan.per_cluster_counts))
    ]
    m = clusters[0].mu.shape[0]
    if not blocks:
        return np.empty((0, m))
    return np.vstack(blocks)


def append_minority_rows(ds: Dataset, rows: np.ndarray) -> Dataset:
    """Append synthetic rows carrying the minority label; original rows stay put."""
    if rows.shape[0] == 0:
        return ds
    features = np.vstack([ds.features, rows])
    labels = np.concatenate([ds.labels, np.full(rows.shape[0], ds.minority_label, dtype=np.int64)])
    return Dataset(features, labels, ds.feature_names, ds.minority_label)


def oversample_to_count(ds: Dataset, n_new: int, k_max: int, seed: int) -> Dataset:
    """Append exactly ``n_new`` synthetic minority samples to ``ds``."""
    if n_new < 0:
        raise ValueError("n_new must be nonnegative")
    if n_new == 0:
        return ds
    minority_X = ds.features[ds.labels == ds.minority_label]
    if minority_X.shape[0] == 0:
        raise ValueError("minority class is absent")
    clusters = fit_minority_clusters(minority_X, k_max)
    plan = allocate(clusters, n_new)
    return append_minority_rows(ds, synthesize_plan(clusters, plan, seed))

