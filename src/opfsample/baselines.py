"""Reference oversamplers: SMOTE, Borderline-SMOTE (variant 1), and ADASYN.

All three synthesize minority points by linear interpolation between a
minority sample and one of its kappa nearest minority neighbors, so every
synthetic point lies on a segment between two existing minority points. They
share that draw and differ only in how interpolation sources are chosen:

- SMOTE draws sources uniformly from the minority class.
- Borderline-SMOTE draws only from "danger" samples, whose all-class
  neighborhood is majority-dominated but not fully majority.
- ADASYN allocates the budget per minority sample proportionally to the
  majority share of its all-class neighborhood.

Every sampler checks its inputs the same way before any work, also when no
row is requested: at least two minority samples, kappa at most the minority
count minus one, and a nonnegative count; otherwise ``ValueError``.
Borderline-SMOTE with an empty danger set, and ADASYN with all-zero weights,
fall back to plain SMOTE (logged), so callers always get the requested count.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .cluster import _neighbor_order, _row_distances, pairwise_distances
from .data import minority_label_of
from .oversample import largest_remainder

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class NeighborConfig:
    """Nearest-neighbor count and seed shared by the SMOTE-family methods."""

    kappa: int
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.kappa, (int, np.integer)) or self.kappa < 1:
            raise ValueError("kappa must be a positive integer")


def _neighbor_table(X: np.ndarray, k: int, rows: np.ndarray | None = None) -> np.ndarray:
    """Indices of the k nearest rows of X, per row in ``rows`` (default all).

    Self is excluded and ties keep ascending index order. Given ``rows``,
    only their distances are computed.
    """
    if rows is None:
        return _neighbor_order(pairwise_distances(X))[:, :k]
    block = np.array([_row_distances(X, X[i]) for i in rows])
    return _neighbor_order(block, rows)[:, :k]


def _check(n_min: int, kappa: int, n_new: int) -> None:
    if n_min < 2:
        raise ValueError("need at least two minority samples")
    if kappa > n_min - 1:
        raise ValueError(f"kappa={kappa} out of range for {n_min} minority samples")
    if n_new < 0:
        raise ValueError("n_new must be nonnegative")


def _interpolate(X: np.ndarray, base: np.ndarray, cfg: NeighborConfig, rng) -> np.ndarray:
    """Step a uniform fraction from each base row of X toward one of its kappa nearest rows."""
    table = _neighbor_table(X, cfg.kappa)
    pick = rng.integers(0, cfg.kappa, base.size)
    u = rng.random((base.size, 1))
    sources = X[base]
    return sources + u * (X[table[base, pick]] - sources)


def smote(minority_X: np.ndarray, n_new: int, cfg: NeighborConfig) -> np.ndarray:
    """Interpolate between uniformly drawn minority samples and their neighbors."""
    X = np.asarray(minority_X, dtype=np.float64)
    _check(X.shape[0], cfg.kappa, n_new)
    rng = np.random.default_rng(cfg.seed)
    return _interpolate(X, rng.integers(0, X.shape[0], n_new), cfg, rng)


def _majority_neighbor_counts(
    X: np.ndarray, y: np.ndarray, minority: int, kappa: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per minority sample: majority count among its kappa all-class neighbors."""
    minority_idx = np.flatnonzero(y == minority)
    # only the minority rows' neighborhoods are read, so only their distances are computed
    table = _neighbor_table(np.asarray(X, dtype=np.float64), kappa, minority_idx)
    counts = np.count_nonzero(y[table] != minority, axis=1).astype(np.int64)
    return minority_idx, counts


def _minority_neighbors(X, y, cfg: NeighborConfig, minority_label, n_new: int = 0):
    """Checked inputs: the minority rows and their majority-neighbor counts.

    The minority label is inferred from ``y`` when not given.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    minority = minority_label_of(y) if minority_label is None else int(minority_label)
    _check(int(np.count_nonzero(y == minority)), cfg.kappa, n_new)
    minority_idx, counts = _majority_neighbor_counts(X, y, minority, cfg.kappa)
    return X[minority_idx], counts


def _danger(maj_counts: np.ndarray, kappa: int) -> np.ndarray:
    return (maj_counts >= kappa / 2.0) & (maj_counts < kappa)


def _allocation(maj_counts: np.ndarray, kappa: int, n_new: int) -> np.ndarray:
    r = maj_counts / kappa
    total = r.sum()
    if total == 0:
        return np.zeros(r.size, dtype=np.int64)
    return largest_remainder(r / total * n_new, n_new)


def borderline_danger_mask(X, y, cfg: NeighborConfig, minority_label=None) -> np.ndarray:
    """Danger flags per minority sample, in minority-row order.

    A minority sample is DANGER when at least kappa/2 but fewer than kappa of
    its kappa nearest all-class neighbors are majority; with all-majority
    neighborhoods it is NOISE, with majority-minorities below kappa/2 it is
    SAFE. Only DANGER samples seed synthesis.
    """
    return _danger(_minority_neighbors(X, y, cfg, minority_label)[1], cfg.kappa)


def borderline_smote(X, y, n_new: int, cfg: NeighborConfig, minority_label=None) -> np.ndarray:
    """SMOTE seeded only at borderline minority samples (variant 1)."""
    minority_X, maj_counts = _minority_neighbors(X, y, cfg, minority_label, n_new)
    danger_rows = np.flatnonzero(_danger(maj_counts, cfg.kappa))
    if danger_rows.size == 0:
        logger.info("borderline-smote: empty danger set, falling back to plain SMOTE")
        return smote(minority_X, n_new, cfg)
    rng = np.random.default_rng(cfg.seed)
    return _interpolate(minority_X, danger_rows[rng.integers(0, danger_rows.size, n_new)], cfg, rng)


def adasyn_allocation(X, y, cfg: NeighborConfig, n_new: int, minority_label=None) -> np.ndarray:
    """Per-minority-sample synthesis counts, or all zeros when weights vanish.

    Each minority sample is weighted by the majority share of its kappa
    all-class neighbors; normalized weights times ``n_new`` are rounded with
    an exact-sum largest-remainder correction.
    """
    return _allocation(_minority_neighbors(X, y, cfg, minority_label, n_new)[1], cfg.kappa, n_new)


def adasyn(X, y, cfg: NeighborConfig, n_new: int, minority_label=None) -> np.ndarray:
    """Adaptive SMOTE: budget concentrates where majority neighbors dominate."""
    minority_X, maj_counts = _minority_neighbors(X, y, cfg, minority_label, n_new)
    if not maj_counts.any():
        logger.info("adasyn: all weights zero, falling back to plain SMOTE")
        return smote(minority_X, n_new, cfg)
    per_row = _allocation(maj_counts, cfg.kappa, n_new)
    rng = np.random.default_rng(cfg.seed)
    return _interpolate(minority_X, np.repeat(np.arange(per_row.size), per_row), cfg, rng)
