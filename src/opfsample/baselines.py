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
fall back to plain SMOTE (logged) on the minority neighbor order they already
hold, so callers always get the requested count.

Neighbor orders do not depend on kappa, so a caller that tries several kappa
values on one training set can sort once: :func:`neighbor_orders` computes the
minority rows' distances to every row as one block and keeps the first
``width`` columns of both orders. ``borderline_smote`` and ``adasyn`` take
that result as ``orders`` and build it at a width of kappa without it;
``smote`` takes its minority order (or :func:`_neighbor_table` at that width)
as ``minority_order``. Each reads the first kappa columns, and a prefix of a
stable sort is the narrower sort, so the output is the same bit for bit.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .cluster import _neighbor_order, _row_distances, pairwise_distances
from .data import _own, minority_label_of
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


@dataclass(frozen=True)
class NeighborOrders:
    """Both neighbor orders of the minority rows of one training set.

    Row r belongs to the r-th minority row. ``all_class`` lists row indices
    of the whole set and ``minority`` lists indices into the minority rows;
    each is the stable (distance, index) order without the row itself, cut to
    the same number of leading columns, its width.
    """

    all_class: np.ndarray
    minority: np.ndarray

    def __post_init__(self):
        _own(self, all_class=np.intp, minority=np.intp)


def _neighbor_table(X: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k nearest rows of X, per row; self excluded, ties in index order."""
    return _neighbor_order(pairwise_distances(X))[:, :k]


def _row_block(A: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Each row of P's distances to every row of A, one row of the block each.

    Row r is :func:`~opfsample.cluster._row_distances` of ``P[r]``, bit for bit.
    """
    out = np.empty((P.shape[0], A.shape[0]))
    for r, p in enumerate(P):
        out[r] = _row_distances(A, p)
    return out


def neighbor_orders(X, y, minority: int, width: int) -> NeighborOrders:
    """The minority rows' all-class and minority neighbor orders, ``width`` columns each.

    One distance block, sorted once per order, serves every kappa up to
    ``width``.
    """
    X = np.asarray(X, dtype=np.float64)
    minority_idx = np.flatnonzero(np.asarray(y) == minority)
    block = _row_block(X, X[minority_idx])
    return NeighborOrders(_neighbor_order(block, minority_idx)[:, :width],
                          _neighbor_order(block[:, minority_idx])[:, :width])


def _prefix(order: np.ndarray, n_rows: int, kappa: int) -> np.ndarray:
    """The first kappa columns of a precomputed neighbor order of ``n_rows`` rows."""
    if order.ndim != 2 or order.shape[0] != n_rows or order.shape[1] < kappa:
        raise ValueError(f"a neighbor order of {n_rows} rows needs at least kappa={kappa} "
                         f"columns, got shape {order.shape}")
    return order[:, :kappa]


def _check(n_min: int, kappa: int, n_new: int) -> None:
    if n_min < 2:
        raise ValueError("need at least two minority samples")
    if kappa > n_min - 1:
        raise ValueError(f"kappa={kappa} out of range for {n_min} minority samples")
    if n_new < 0:
        raise ValueError("n_new must be nonnegative")


def _interpolate(X: np.ndarray, table: np.ndarray, base: np.ndarray, rng) -> np.ndarray:
    """Step a uniform fraction from each base row of X toward one of its ``table`` neighbors."""
    pick = rng.integers(0, table.shape[1], base.size)
    u = rng.random((base.size, 1))
    sources = X[base]
    return sources + u * (X[table[base, pick]] - sources)


def smote(minority_X: np.ndarray, n_new: int, cfg: NeighborConfig, *,
          minority_order: np.ndarray | None = None) -> np.ndarray:
    """Interpolate between uniformly drawn minority samples and their neighbors.

    ``minority_order``, when given, is the rows' neighbor order at least kappa
    columns wide; its first kappa columns replace the distances and the sort.
    """
    X = np.asarray(minority_X, dtype=np.float64)
    _check(X.shape[0], cfg.kappa, n_new)
    table = (_neighbor_table(X, cfg.kappa) if minority_order is None
             else _prefix(minority_order, X.shape[0], cfg.kappa))
    rng = np.random.default_rng(cfg.seed)
    return _interpolate(X, table, rng.integers(0, X.shape[0], n_new), rng)


def _majority_counts(y: np.ndarray, table: np.ndarray, minority: int) -> np.ndarray:
    """Per row of an all-class neighbor table, how many of its neighbors are majority."""
    return np.count_nonzero(y[table] != minority, axis=1).astype(np.int64)


def _majority_neighbor_counts(
    X: np.ndarray, y: np.ndarray, minority: int, kappa: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minority row indices, each one's majority count among its kappa all-class
    neighbors, and the minority columns of their one distance block to every row.

    The samplers read the same counts through :func:`neighbor_orders`; this
    function is the unchecked, single-kappa form, kept because the benchmark's
    layer trace (``bench/layers.py``) hooks it by name.
    """
    minority_idx = np.flatnonzero(y == minority)
    block = _row_block(X, X[minority_idx])
    counts = _majority_counts(y, _neighbor_order(block, minority_idx)[:, :kappa], minority)
    return minority_idx, counts, block[:, minority_idx]


def _minority_neighbors(X, y, cfg: NeighborConfig, minority_label, n_new: int = 0,
                        orders: NeighborOrders | None = None):
    """Checked inputs: the minority rows, their majority-neighbor counts and
    kappa nearest minority neighbors; the minority label is inferred if not
    given. Without ``orders``, they are computed at a width of kappa."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    minority = minority_label_of(y) if minority_label is None else int(minority_label)
    n_min = int(np.count_nonzero(y == minority))
    _check(n_min, cfg.kappa, n_new)
    if orders is None:
        orders = neighbor_orders(X, y, minority, cfg.kappa)
    counts = _majority_counts(y, _prefix(orders.all_class, n_min, cfg.kappa), minority)
    return X[y == minority], counts, _prefix(orders.minority, n_min, cfg.kappa)


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


def borderline_smote(X, y, n_new: int, cfg: NeighborConfig, minority_label=None, *,
                     orders: NeighborOrders | None = None) -> np.ndarray:
    """SMOTE seeded only at borderline minority samples (variant 1).

    ``orders``, when given, is :func:`neighbor_orders` of ``X`` and ``y`` at a
    width of at least kappa; the result is the same as without it.
    """
    minority_X, maj_counts, table = _minority_neighbors(X, y, cfg, minority_label, n_new, orders)
    danger_rows = np.flatnonzero(_danger(maj_counts, cfg.kappa))
    if danger_rows.size == 0:
        logger.info("borderline-smote: empty danger set, falling back to plain SMOTE")
        return smote(minority_X, n_new, cfg, minority_order=table)
    rng = np.random.default_rng(cfg.seed)
    base = danger_rows[rng.integers(0, danger_rows.size, n_new)]
    return _interpolate(minority_X, table, base, rng)


def adasyn_allocation(X, y, cfg: NeighborConfig, n_new: int, minority_label=None) -> np.ndarray:
    """Per-minority-sample synthesis counts, or all zeros when weights vanish.

    Each minority sample is weighted by the majority share of its kappa
    all-class neighbors; normalized weights times ``n_new`` are rounded with
    an exact-sum largest-remainder correction.
    """
    return _allocation(_minority_neighbors(X, y, cfg, minority_label, n_new)[1], cfg.kappa, n_new)


def adasyn(X, y, cfg: NeighborConfig, n_new: int, minority_label=None, *,
           orders: NeighborOrders | None = None) -> np.ndarray:
    """Adaptive SMOTE: budget concentrates where majority neighbors dominate.

    ``orders`` is as in :func:`borderline_smote`.
    """
    minority_X, maj_counts, table = _minority_neighbors(X, y, cfg, minority_label, n_new, orders)
    if not maj_counts.any():
        logger.info("adasyn: all weights zero, falling back to plain SMOTE")
        return smote(minority_X, n_new, cfg, minority_order=table)
    per_row = _allocation(maj_counts, cfg.kappa, n_new)
    rng = np.random.default_rng(cfg.seed)
    return _interpolate(minority_X, table, np.repeat(np.arange(per_row.size), per_row), rng)
