"""Reference oversamplers: SMOTE, Borderline-SMOTE (variant 1), and ADASYN.

All three synthesize minority points by linear interpolation between a
minority sample and one of its kappa nearest minority neighbors, so every
synthetic point lies on a segment between two existing minority points. They
differ in how interpolation sources are chosen:

- SMOTE draws sources uniformly from the minority class.
- Borderline-SMOTE draws only from "danger" samples, whose all-class
  neighborhood is majority-dominated but not fully majority.
- ADASYN allocates the budget per minority sample proportionally to the
  majority share of its all-class neighborhood.

Borderline-SMOTE with an empty danger set, and ADASYN with all-zero weights,
fall back to plain SMOTE (logged), so callers always get the requested count.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .cluster import _neighbor_order, pairwise_distances
from .data import minority_label_of
from .oversample import largest_remainder

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class NeighborConfig:
    """Nearest-neighbor count and seed shared by the SMOTE-family methods."""

    kappa: int
    seed: int = 0

    def __post_init__(self):
        if self.kappa < 1:
            raise ValueError("kappa must be a positive integer")


def _neighbor_table(X: np.ndarray, k: int, rows: np.ndarray | None = None) -> np.ndarray:
    """Indices of the k nearest rows of X, per row in ``rows`` (default all).

    Self is excluded and ties keep ascending index order.
    """
    return _neighbor_order(pairwise_distances(X), rows)[:, :k]


def _interpolate(rng: np.random.Generator, bases: np.ndarray, neighbors: np.ndarray) -> np.ndarray:
    u = rng.random((bases.shape[0], 1))
    return bases + u * (neighbors - bases)


def smote(minority_X: np.ndarray, n_new: int, cfg: NeighborConfig) -> np.ndarray:
    """Interpolate between uniformly drawn minority samples and their neighbors."""
    X = np.asarray(minority_X, dtype=np.float64)
    n_min, m = X.shape
    if n_min < 2:
        raise ValueError("SMOTE needs at least two minority samples")
    if cfg.kappa > n_min - 1:
        raise ValueError(f"kappa={cfg.kappa} out of range for {n_min} minority samples")
    if n_new < 0:
        raise ValueError("n_new must be nonnegative")
    if n_new == 0:
        return np.empty((0, m))
    table = _neighbor_table(X, cfg.kappa)
    rng = np.random.default_rng(cfg.seed)
    base = rng.integers(0, n_min, n_new)
    pick = rng.integers(0, cfg.kappa, n_new)
    return _interpolate(rng, X[base], X[table[base, pick]])


def _majority_neighbor_counts(
    X: np.ndarray, y: np.ndarray, minority: int, kappa: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per minority sample: majority count among its kappa all-class neighbors."""
    minority_idx = np.flatnonzero(y == minority)
    n_min = minority_idx.size
    if n_min < 2:
        raise ValueError("need at least two minority samples")
    if kappa > n_min - 1:
        raise ValueError(f"kappa={kappa} out of range for {n_min} minority samples")
    # only the minority rows' neighborhoods are read, so only they are sorted
    table = _neighbor_table(np.asarray(X, dtype=np.float64), kappa, minority_idx)
    counts = np.count_nonzero(y[table] != minority, axis=1).astype(np.int64)
    return minority_idx, counts


def borderline_danger_mask(X, y, cfg: NeighborConfig, minority_label=None) -> np.ndarray:
    """Danger flags per minority sample, in minority-row order.

    A minority sample is DANGER when at least kappa/2 but fewer than kappa of
    its kappa nearest all-class neighbors are majority; with all-majority
    neighborhoods it is NOISE, with majority-minorities below kappa/2 it is
    SAFE. Only DANGER samples seed synthesis.
    """
    y = np.asarray(y)
    minority = minority_label_of(y) if minority_label is None else int(minority_label)
    _, maj_counts = _majority_neighbor_counts(X, y, minority, cfg.kappa)
    return (maj_counts >= cfg.kappa / 2.0) & (maj_counts < cfg.kappa)


def borderline_smote(X, y, n_new: int, cfg: NeighborConfig, minority_label=None) -> np.ndarray:
    """SMOTE seeded only at borderline minority samples (variant 1)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    minority = minority_label_of(y) if minority_label is None else int(minority_label)
    if n_new < 0:
        raise ValueError("n_new must be nonnegative")
    minority_X = X[y == minority]
    if n_new == 0:
        return np.empty((0, X.shape[1]))
    danger = borderline_danger_mask(X, y, cfg, minority)
    if not danger.any():
        logger.info("borderline-smote: empty danger set, falling back to plain SMOTE")
        return smote(minority_X, n_new, cfg)
    table = _neighbor_table(minority_X, cfg.kappa)
    danger_rows = np.flatnonzero(danger)
    rng = np.random.default_rng(cfg.seed)
    base = danger_rows[rng.integers(0, danger_rows.size, n_new)]
    pick = rng.integers(0, cfg.kappa, n_new)
    return _interpolate(rng, minority_X[base], minority_X[table[base, pick]])


def adasyn_allocation(X, y, cfg: NeighborConfig, n_new: int, minority_label=None) -> np.ndarray:
    """Per-minority-sample synthesis counts, or all zeros when weights vanish.

    Each minority sample is weighted by the majority share of its kappa
    all-class neighbors; normalized weights times ``n_new`` are rounded with
    an exact-sum largest-remainder correction.
    """
    y = np.asarray(y)
    minority = minority_label_of(y) if minority_label is None else int(minority_label)
    _, maj_counts = _majority_neighbor_counts(X, y, minority, cfg.kappa)
    r = maj_counts / cfg.kappa
    total = r.sum()
    if total == 0:
        return np.zeros(r.size, dtype=np.int64)
    return largest_remainder(r / total * n_new, n_new)


def adasyn(X, y, cfg: NeighborConfig, n_new: int, minority_label=None) -> np.ndarray:
    """Adaptive SMOTE: budget concentrates where majority neighbors dominate."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    minority = minority_label_of(y) if minority_label is None else int(minority_label)
    if n_new < 0:
        raise ValueError("n_new must be nonnegative")
    minority_X = X[y == minority]
    if n_new == 0:
        return np.empty((0, X.shape[1]))
    counts = adasyn_allocation(X, y, cfg, n_new, minority)
    if counts.sum() == 0:
        logger.info("adasyn: all weights zero, falling back to plain SMOTE")
        return smote(minority_X, n_new, cfg)
    table = _neighbor_table(minority_X, cfg.kappa)
    rng = np.random.default_rng(cfg.seed)
    base = np.repeat(np.arange(counts.size), counts)
    pick = rng.integers(0, cfg.kappa, n_new)
    return _interpolate(rng, minority_X[base], minority_X[table[base, pick]])
