"""Seeded synthetic inputs shaped like the paper's three UCI breast-cancer sets.

Each workload fixes the shape, the class counts, the missing-cell count, the
trial count and which rows are minority; only cell values and the positions
of the `?` cells depend on the seed. The CSV layout matches what ``opfsample.load_csv``
reads with its defaults: label in the last column, `?` for a missing cell.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    features: int
    minority: int
    missing: int
    trials: int
    labels: tuple[str, str]  # (majority, minority) raw label text
    header: bool


WORKLOADS = {
    w.name: w
    for w in (
        # cluster-heavy: o2pf sweeps k = 1..100 over ~170 minority rows in four sub-clusters
        Workload("diag2", 699, 9, 241, 16, 1, ("2", "4"), False),
        # classifier-heavy: ~1.1k-row balanced training sets
        Workload("cervical", 858, 32, 55, 3622, 1, ("0", "1"), True),
        # small input: fixed costs per call, per trial and for report writing dominate
        Workload("prognostic", 198, 32, 47, 4, 20, ("N", "R"), False),
    )
}


def _diag2(rng: np.random.Generator, w: Workload):
    """Benign rows in one tight blob; malignant rows in four separated sub-clusters."""
    n_maj = w.rows - w.minority
    benign = rng.normal(2.5, 0.9, size=(n_maj, w.features))
    centers = rng.uniform(4.0, 9.0, size=(4, w.features))
    sizes = np.array([0.4, 0.3, 0.2, 0.1]) * w.minority
    member = np.repeat(np.arange(4), np.round(sizes).astype(int))[: w.minority]
    member = np.concatenate([member, np.zeros(w.minority - member.size, dtype=int)])
    malignant = centers[member] + rng.normal(0.0, 0.8, size=(w.minority, w.features))
    X = np.vstack([benign, malignant])
    missing = np.zeros(X.shape, dtype=bool)
    # the real file's 16 gaps are all in one column (bare nuclei)
    missing[rng.choice(w.rows, w.missing, replace=False), 5] = True
    return X, missing


def _cervical(rng: np.random.Generator, w: Workload):
    """Survey-like columns; gaps concentrate in two columns and one block of rows."""
    n_maj = w.rows - w.minority
    scale = rng.uniform(0.5, 5.0, size=w.features)
    X = rng.normal(0.0, 1.0, size=(w.rows, w.features)) * scale
    X[n_maj:, :8] += 0.9 * scale[:8]
    missing = np.zeros(X.shape, dtype=bool)
    # two "time since diagnosis" columns are missing for 787 rows each
    for col in (26, 27):
        missing[rng.choice(w.rows, 787, replace=False), col] = True
    # 104 respondents skipped the 12-question STD block
    block = rng.choice(w.rows, 104, replace=False)
    missing[np.ix_(block, np.arange(12, 24))] = True
    # the rest is scattered over four columns
    left = w.missing - int(missing.sum())
    cells = rng.choice(np.flatnonzero(~missing[:, 2:6]), left, replace=False)
    sub = missing[:, 2:6]
    sub.flat[cells] = True
    missing[:, 2:6] = sub
    return X, missing


def _prognostic(rng: np.random.Generator, w: Workload):
    """Overlapping classes: recurrent cases shift a handful of features."""
    n_maj = w.rows - w.minority
    X = rng.normal(0.0, 1.0, size=(w.rows, w.features))
    X[n_maj:, :6] += 0.7
    X = X * rng.uniform(0.1, 50.0, size=w.features)
    missing = np.zeros(X.shape, dtype=bool)
    # lymph node status, the last feature, has the file's four gaps
    missing[rng.choice(w.rows, w.missing, replace=False), w.features - 1] = True
    return X, missing


_GENERATORS = {"diag2": _diag2, "cervical": _cervical, "prognostic": _prognostic}


def write_workload(w: Workload, seed: int, path: Path) -> None:
    """Write the workload's CSV for ``seed``; the same seed writes the same bytes."""
    tag = sum(map(ord, w.name))
    X, missing = _GENERATORS[w.name](np.random.default_rng([seed, tag]), w)
    labels = np.array([w.labels[0]] * (w.rows - w.minority) + [w.labels[1]] * w.minority)
    # Which rows are minority does not depend on the seed, so every seed's
    # trials split into partitions with the same class counts and the same
    # grid clamps; the seed moves only cell values and gap positions.
    layout = np.random.default_rng(tag).permutation(w.rows)
    X, missing, labels = X[layout], missing[layout], labels[layout]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh)
        if w.header:
            out.writerow([f"f{j}" for j in range(w.features)] + ["label"])
        for r in range(w.rows):
            cells = ["?" if missing[r, j] else f"{X[r, j]:.6f}" for j in range(w.features)]
            out.writerow(cells + [labels[r]])


def check_loaded(w: Workload, ds) -> list[str]:
    """Problems with a loaded dataset against the workload's stated make-up."""
    problems = []
    for what, got, want in (
        ("rows", ds.n_samples, w.rows),
        ("features", ds.n_features, w.features),
        ("minority rows", ds.minority_count, w.minority),
        ("missing cells", ds.n_missing, w.missing),
    ):
        if got != want:
            problems.append(f"{w.name}: {what} {got}, expected {want}")
    if ds.minority_label != 1:
        problems.append(f"{w.name}: minority label {ds.minority_label}, expected 1")
    return problems
