"""Classification metrics and the Wilcoxon signed-rank test.

The minority class is the positive class throughout. The Wilcoxon test uses
the exact null distribution of the signed-rank statistic (computed by
enumerating the distribution over all 2^n sign assignments) whenever the
effective sample size is at most 25, which covers the 20-trial regime this
package targets; larger samples use a normal approximation with tie
correction. Only that approximation needs scipy (``scipy.stats.norm``), so
scipy is imported only for a test with more than 25 nonzero pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ALPHA = 0.05
EXACT_LIMIT = 25
MIN_EFFECTIVE_PAIRS = 5


@dataclass(frozen=True)
class Confusion:
    """Counts with the minority class as positive."""

    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class Scores:
    """Recall, accuracy and F1; the flags mark zero-denominator fallbacks."""

    recall: float
    accuracy: float
    f1: float
    recall_defined: bool = True
    f1_defined: bool = True


def confusion(truth, pred, minority: int) -> Confusion:
    truth = np.asarray(truth)
    pred = np.asarray(pred)
    if truth.shape != pred.shape or truth.ndim != 1:
        raise ValueError("truth and prediction must be vectors of equal length")
    if truth.size == 0:
        raise ValueError("cannot score an empty set")
    pos_truth = truth == minority
    pos_pred = pred == minority
    tp = int(np.count_nonzero(pos_truth & pos_pred))
    fp = int(np.count_nonzero(~pos_truth & pos_pred))
    fn = int(np.count_nonzero(pos_truth & ~pos_pred))
    tn = truth.size - tp - fp - fn
    return Confusion(tp, fp, tn, fn)


def score(truth, pred, minority: int) -> Scores:
    """Minority recall, accuracy, and F1; undefined ratios score 0 (flagged)."""
    c = confusion(truth, pred, minority)
    recall_defined = (c.tp + c.fn) > 0
    f1_defined = (2 * c.tp + c.fp + c.fn) > 0
    recall = c.tp / (c.tp + c.fn) if recall_defined else 0.0
    f1 = 2 * c.tp / (2 * c.tp + c.fp + c.fn) if f1_defined else 0.0
    accuracy = (c.tp + c.tn) / c.total
    return Scores(recall, accuracy, f1, recall_defined, f1_defined)


@dataclass(frozen=True)
class WilcoxonResult:
    """Outcome of the paired two-sided signed-rank test at alpha = 0.05.

    ``conclusive`` is False when fewer than 5 nonzero differences remain, in
    which case the result is never significant and the p-value is set to 1.
    """

    statistic: float
    p_value: float
    n_effective: int
    significant: bool
    conclusive: bool


def tied_ranks(values) -> np.ndarray:
    """1-based ranks in which each run of equal values shares its mean rank.

    A run that fills sorted positions start..end-1 gets (start + end + 1) / 2,
    as ``scipy.stats.rankdata`` gives by default.
    """
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], values.size]
    ranks = np.empty(values.size, dtype=np.float64)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def signed_rank_null_counts(ranks: np.ndarray) -> tuple[np.ndarray, int]:
    """Exact counts of sign assignments per doubled positive-rank sum.

    Ranks may be half-integers (average-rank ties), so sums are tracked at
    twice their value to stay integral. Entry s of the returned array is the
    number of the 2^n sign assignments whose positive ranks sum to s/2.
    """
    doubled = np.rint(2 * np.asarray(ranks, dtype=np.float64)).astype(np.int64)
    total = int(doubled.sum())
    counts = np.zeros(total + 1, dtype=np.int64)
    counts[0] = 1
    for r in doubled:
        shifted = np.zeros_like(counts)
        shifted[r:] = counts[: counts.size - r]
        counts += shifted
    return counts, total


def wilcoxon_signed_rank(a, b) -> WilcoxonResult:
    """Two-sided paired test on W = min(positive, negative rank sums).

    Zero differences are dropped. The exact p-value is the null probability
    that min(S+, S-) is at most the observed W, taken over all equally likely
    sign assignments of the absolute-difference ranks.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("paired samples must be vectors of equal length")
    d = a - b
    if np.isnan(d).any():
        raise ValueError("paired samples must not contain NaN")
    d = d[d != 0]
    n_eff = d.size
    ranks = tied_ranks(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    w_minus = float(ranks[d < 0].sum())
    w = min(w_plus, w_minus)
    if n_eff < MIN_EFFECTIVE_PAIRS:
        return WilcoxonResult(w, 1.0, n_eff, False, False)

    if n_eff <= EXACT_LIMIT:
        counts, total = signed_rank_null_counts(ranks)
        w2 = int(round(2 * w))
        sums = np.arange(total + 1)
        hit = np.minimum(sums, total - sums) <= w2
        p = float(counts[hit].sum() / 2**n_eff)
    else:
        mean = n_eff * (n_eff + 1) / 4.0
        var = n_eff * (n_eff + 1) * (2 * n_eff + 1) / 24.0
        _, tie_sizes = np.unique(np.abs(d), return_counts=True)
        var -= float((tie_sizes**3 - tie_sizes).sum()) / 48.0
        z = (w - mean) / np.sqrt(var)
        from scipy.stats import norm  # slow to import, and only this branch needs it

        p = min(1.0, 2.0 * float(norm.cdf(z)))

    return WilcoxonResult(w, p, n_eff, p < ALPHA, True)
