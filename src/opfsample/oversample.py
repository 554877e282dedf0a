"""The per-cluster pieces of O²PF oversampling.

Given a clustering of the minority samples, each cluster contributes a
multivariate Gaussian fitted to its members, and synthetic samples are drawn
per cluster in proportion to cluster size. Synthesis happens in whatever
feature space the input lives in (the harness passes standardized features)
and the synthetic rows are appended after the original rows, which stay
untouched. The harness picks the clustering and draws from its Gaussians in
one place, ``harness._O2pfSweep.rows``.

Every Gaussian has a finite mean and covariance, so every draw is finite.
:func:`largest_remainder`, which both :func:`allocate` and ADASYN round
their shares with, takes only a vector of finite nonnegative shares that
sum to the requested total up to float64 rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cluster import ClusterForest
from .data import Dataset, _frozen, _integer, _own


@dataclass(frozen=True)
class ClusterGaussian:
    """Gaussian fitted to one cluster: mean, covariance, and its members, ``count`` of them.

    ``scale`` maps standard normal draws onto the covariance. It comes from
    the symmetric eigendecomposition, taken once here, with negative
    eigenvalues clamped to zero, so a rank-deficient covariance (common when
    a cluster has fewer members than features) needs no factorization that
    could fail. A non-finite mean or covariance cell, or a covariance that is
    not symmetric, raises ``ValueError``.
    """

    mu: np.ndarray
    sigma_mat: np.ndarray
    count: int = field(init=False)
    member_indices: np.ndarray
    scale: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _own(self, mu=np.float64, sigma_mat=np.float64, member_indices=np.intp)
        m = self.mu.shape[0]
        if self.sigma_mat.shape != (m, m):
            raise ValueError("covariance shape does not match the mean")
        if not (np.isfinite(self.mu).all() and np.isfinite(self.sigma_mat).all()):
            raise ValueError("mean and covariance must be finite")
        if not np.allclose(self.sigma_mat, self.sigma_mat.T, atol=1e-9):
            raise ValueError("covariance must be symmetric")
        if self.member_indices.size < 1:
            raise ValueError("a cluster needs at least one member index")
        object.__setattr__(self, "count", int(self.member_indices.size))
        eigvals, eigvecs = np.linalg.eigh(self.sigma_mat)
        object.__setattr__(self, "scale", _frozen(eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))))


@dataclass(frozen=True)
class OversamplePlan:
    """How many synthetic samples each cluster contributes."""

    per_cluster_counts: tuple[int, ...]


def largest_remainder(shares: np.ndarray, total: int) -> np.ndarray:
    """Round nonnegative real shares to integers summing exactly to ``total``.

    Floors first, then hands out the remainder by descending fractional part;
    ties prefer the larger share, then the lower index.

    The shares must be a vector of finite nonnegative numbers that sum to
    ``total`` up to the float64 rounding of ``size`` shares: within
    (size + 2)·ε·total, ε being the float64 machine epsilon. A share built as
    n·c/Σc (as :func:`allocate` does) or r/Σr·n (as ADASYN does) is within
    three roundings of its exact value, the sum it divides by within
    size - 1 more, and the sum checked here within size - 1 more:
    (2·size + 1)·ε/2·total in all. Otherwise, or when ``total`` is so large
    that this tolerance passes a quarter unit and rounding could no longer be
    told from a missing unit, it raises ``ValueError``.
    """
    shares = np.asarray(shares, dtype=np.float64)
    total = _integer(total, "total", 0)
    if shares.ndim != 1 or not (np.isfinite(shares).all() and (shares >= 0).all()):
        raise ValueError("shares must be a vector of finite nonnegative numbers")
    tol = (shares.size + 2) * np.finfo(np.float64).eps * total
    if tol > 0.25:
        raise ValueError(f"cannot round {shares.size} float64 shares to a total of {total}")
    gap = float(shares.sum()) - total
    if abs(gap) > tol:
        raise ValueError("shares exceed the requested total" if gap > 0
                         else "shares undersum the requested total by more than rounding")
    base = np.floor(shares).astype(np.int64)
    leftover = int(total - base.sum())
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
        out.append(ClusterGaussian(mu, sigma, members))
    return out


def allocate(clusters: list[ClusterGaussian], n_new: int) -> OversamplePlan:
    """Split ``n_new`` across clusters proportionally to their member counts."""
    if not clusters:
        raise ValueError("no clusters to allocate over")
    n_new = _integer(n_new, "n_new", 0)
    counts = np.array([cg.count for cg in clusters], dtype=np.float64)
    shares = n_new * counts / counts.sum()
    return OversamplePlan(tuple(int(v) for v in largest_remainder(shares, n_new)))


def synthesize(cg: ClusterGaussian, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` samples from the cluster Gaussian, deterministically.

    Each draw is ``mu`` plus a standard normal vector mapped through the
    cluster's ``scale``.
    """
    rng = np.random.default_rng(seed)
    return cg.mu + rng.standard_normal((_integer(count, "count", 0), cg.mu.shape[0])) @ cg.scale.T


def synthesize_plan(clusters: list[ClusterGaussian], plan: OversamplePlan, seed: int) -> np.ndarray:
    """Draw the planned number of samples from every cluster.

    Each cluster uses a seed derived from (seed, cluster index), so the
    output does not depend on evaluation order and clusters could be sampled
    concurrently.
    """
    if not clusters:
        raise ValueError("no clusters to synthesize from")
    if len(plan.per_cluster_counts) != len(clusters):
        raise ValueError("plan does not match the cluster list")
    blocks = [
        synthesize(cg, cnt, np.random.SeedSequence(entropy=seed, spawn_key=(idx,)))
        for idx, (cg, cnt) in enumerate(zip(clusters, plan.per_cluster_counts))
    ]
    return np.vstack(blocks)


def append_minority_rows(ds: Dataset, rows: np.ndarray) -> Dataset:
    """Append synthetic rows carrying the minority label; original rows stay put."""
    if rows.shape[0] == 0:
        return ds
    features = np.vstack([ds.features, rows])
    labels = np.concatenate([ds.labels, np.full(rows.shape[0], ds.minority_label, dtype=np.int64)])
    return Dataset(features, labels, ds.feature_names, ds.minority_label)
