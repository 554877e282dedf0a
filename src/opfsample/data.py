"""Tabular dataset handling: CSV ingestion, imputation, standardization, splitting.

Feature matrices are float64 and labels are {0, 1}. Missing values are carried
as NaN between loading and imputation. Every container is immutable after
construction, so one loaded dataset serves every trial of every method in a
comparison; all operations are pure functions of their inputs plus an
explicit seed.

:func:`_own` is the one way a result type, here or in any other module, takes
ownership of its arrays: a :func:`_frozen` read-only copy that no caller shares.
:func:`_integer` is the one integer rule: wherever a module checks a caller's
integer (a count, a seed, a column index, a grid value), it checks it with
:func:`_integer` and keeps the plain ``int`` that comes back.
:func:`squared_norms` is the one row-size rule: a row whose squared norm
exceeds ``2¹⁰⁰⁰`` is too large. Standardization rejects such a row as a
:class:`DataError`, and the classifier rejects it with ``ValueError``; below
the limit no distance and no certified distance bound
(:mod:`opfsample.cluster`) can overflow.
"""

from __future__ import annotations

import csv
import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ExperimentError

# (train, validation, test) shares of every split
SPLIT_RATIOS = (0.7, 0.15, 0.15)
_SPLIT_RETRIES = 100


def _frozen(arr, dtype=None) -> np.ndarray:
    """A read-only copy of ``arr``, cast to ``dtype`` when given."""
    out = np.array(arr, dtype=dtype)
    out.setflags(write=False)
    return out


def _own(obj, **dtypes) -> None:
    """Swap each named array (or tuple of arrays) field of ``obj`` for a :func:`_frozen` copy in its dtype."""
    for name, dtype in dtypes.items():
        value = getattr(obj, name)
        if isinstance(value, tuple):
            value = tuple(_frozen(v, dtype) for v in value)
        else:
            value = _frozen(value, dtype)
        object.__setattr__(obj, name, value)


_BOUNDS = {None: "an integer", 0: "a nonnegative integer", 1: "a positive integer"}


def _integer(value, name: str, minimum: int | None = None) -> int:
    """``value`` as a plain int, at least ``minimum`` (0 or 1) when given.

    A bool, a value that is not an integer, or one below ``minimum`` raises
    ``ValueError``.
    """
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or minimum is not None and value < minimum):
        raise ValueError(f"{name} must be {_BOUNDS[minimum]}, got {value!r}")
    return int(value)


def _minority_label(value) -> int:
    """``value`` as a plain int class label, 0 or 1, under the :func:`_integer` rule."""
    label = _integer(value, "minority_label", 0)
    if label > 1:
        raise ValueError(f"minority_label must be 0 or 1, got {value!r}")
    return label


# a row whose squared norm exceeds this is too large (module docstring)
_SQUARED_NORM_LIMIT = 2.0 ** 1000


def squared_norms(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's squared norm, and whether the row is within the row-size rule.

    A row is within it when its squared norm is finite and at most
    ``2¹⁰⁰⁰``; a NaN, an inf or an overflow fails that test.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.einsum("ij,ij->i", X, X)
    return sq, sq <= _SQUARED_NORM_LIMIT


def minority_label_of(labels) -> int:
    """Label with the smaller sample count; ties resolve to label 1."""
    labels = np.asarray(labels)
    n0 = int(np.count_nonzero(labels == 0))
    n1 = int(labels.size) - n0
    return 0 if n0 < n1 else 1


@dataclass(frozen=True)
class Dataset:
    """A feature matrix with binary labels.

    ``minority_label`` is fixed when the dataset is first built and is
    propagated unchanged through splitting, imputation, standardization and
    oversampling, so that downstream metrics always target the same class
    even if a derived partition happens to invert the class balance.
    """

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]
    minority_label: int

    def __post_init__(self):
        _own(self, features=np.float64)
        labels = np.asarray(self.labels)
        if self.features.ndim != 2:
            raise DataError("features must be a 2-D matrix")
        n, m = self.features.shape
        if n < 2 or m < 1:
            raise DataError(f"dataset too small: {n} rows x {m} features")
        if labels.shape != (n,):
            raise DataError("labels must be a vector matching the feature rows")
        if not ((labels == 0) | (labels == 1)).all():
            raise DataError("labels must take values in {0, 1}")
        try:
            minority = _minority_label(self.minority_label)
        except ValueError as exc:
            raise DataError(str(exc)) from None
        names = tuple(str(name) for name in self.feature_names)
        if len(names) != m:
            raise DataError("feature_names length must match feature count")
        _own(self, labels=np.int64)
        object.__setattr__(self, "feature_names", names)
        object.__setattr__(self, "minority_label", minority)

    @classmethod
    def from_arrays(cls, features, labels, feature_names=None, minority_label=None) -> "Dataset":
        features = np.asarray(features, dtype=np.float64)
        if feature_names is None:
            feature_names = tuple(f"f{j}" for j in range(features.shape[1] if features.ndim == 2 else 0))
        if minority_label is None:
            minority_label = minority_label_of(labels)
        return cls(features, np.asarray(labels), tuple(feature_names), minority_label)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def class_counts(self) -> tuple[int, int]:
        n1 = int(np.count_nonzero(self.labels == 1))
        return self.n_samples - n1, n1

    @property
    def minority_count(self) -> int:
        return self.class_counts[self.minority_label]

    @property
    def majority_label(self) -> int:
        return 1 - self.minority_label

    @property
    def n_missing(self) -> int:
        return int(np.isnan(self.features).sum())

    def with_features(self, features: np.ndarray) -> "Dataset":
        return Dataset(features, self.labels, self.feature_names, self.minority_label)


@dataclass(frozen=True)
class PreprocessStats:
    """Per-feature means and standard deviations fitted on a training partition.

    Zero standard deviations are recorded as 0 and replaced by a divisor of 1
    when applied, which maps a constant column to all zeros.
    """

    means: np.ndarray
    stds: np.ndarray

    def __post_init__(self):
        _own(self, means=np.float64, stds=np.float64)
        if self.means.shape != self.stds.shape or self.means.ndim != 1:
            raise ValueError("means and stds must be matching vectors")
        if (self.stds < 0).any():
            raise ValueError("standard deviations must be nonnegative")

    def apply(self, part: Dataset, name: str) -> Dataset:
        """``part`` scaled with these statistics; ``name`` names it in errors.

        A missing cell, or a row too large for :func:`squared_norms` once
        scaled, raises :class:`DataError`.
        """
        if np.isnan(part.features).any():
            raise DataError(f"{name} partition: impute missing cells before standardizing")
        with np.errstate(over="ignore", invalid="ignore"):
            features = (part.features - self.means) / np.where(self.stds == 0, 1.0, self.stds)
        too_large = ~squared_norms(features)[1]
        if too_large.any():
            i = int(np.argmax(too_large))
            j = int(np.argmax(np.abs(features[i])))
            raise DataError(
                f"{name} partition row {i + 1}, column {part.feature_names[j]!r}: value "
                f"{float(part.features[i, j])!r} is too large once standardized with the "
                "training mean and std"
            )
        return part.with_features(features)


def _parses_as_float(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def load_csv(path, label_column=-1, missing_token: str = "?") -> Dataset:
    """Load a comma-separated file into a :class:`Dataset`.

    ``label_column`` is either a header name or a (possibly negative) column
    index, which passes :func:`_integer`; the default is the last column.
    Feature cells equal to ``missing_token`` become NaN and stay that way
    until :func:`impute_mean` runs; any other feature cell that parses to a
    non-finite number (``inf``, ``nan``, ``1e999``) raises
    :class:`DataError`. A label cell that is empty, equals ``missing_token``
    or parses to a non-finite number raises :class:`DataError`: a missing
    label is not a class. Error messages number
    rows by their line in the file. Row order is preserved. Raw label values
    are mapped onto {0, 1}, smallest first: by numeric value when every label
    parses as a number (so ``1`` and ``1.0`` are one class), as text
    otherwise.

    ``path`` is a ``str``, ``bytes`` or :class:`os.PathLike` file path; any
    other value, an ``int`` file descriptor among them, raises
    :class:`DataError` before anything is opened.
    """
    if not isinstance(path, (str, bytes, os.PathLike)):
        raise DataError(f"the data path must be a file path, got {path!r}")
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:  # a leading BOM is dropped
            reader = csv.reader(fh)
            lines = [(reader.line_num, [c.strip() for c in row]) for row in reader]
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    except (UnicodeDecodeError, csv.Error) as exc:  # non-UTF-8 bytes, an oversized field
        raise DataError(f"{path}: not a readable UTF-8 CSV file: {exc}") from None
    lines = [(num, row) for num, row in lines if any(row)]
    if not lines:
        raise DataError(f"{path}: empty file")

    first = lines[0][1]
    width = len(first)
    if width < 2:
        raise DataError(f"{path}: need at least one feature column plus the label column")

    if isinstance(label_column, str):
        if label_column not in first:
            raise DataError(f"{path}: label column {label_column!r} not found in header")
        label_idx = first.index(label_column)
        has_header = True
    else:
        label_idx = _integer(label_column, "label_column")
        if label_idx < 0:
            label_idx += width
        if not 0 <= label_idx < width:
            raise DataError(f"{path}: label column index {label_column} out of range for {width} columns")
        has_header = not all(
            cell == missing_token or _parses_as_float(cell)
            for i, cell in enumerate(first)
            if i != label_idx
        )
    names = [c for i, c in enumerate(first) if i != label_idx] if has_header else None
    data_rows = lines[1:] if has_header else lines

    if not data_rows:
        raise DataError(f"{path}: no data rows")

    features: list[list[float]] = []
    raw_labels: list[str] = []
    for line, row in data_rows:
        if len(row) != width:
            raise DataError(f"{path}: row {line} has {len(row)} cells, expected {width}")
        values = []
        for i, cell in enumerate(row):
            if i == label_idx:
                if cell in ("", missing_token):
                    raise DataError(f"{path}: missing label {cell!r} at row {line}, column {i + 1}")
                if _parses_as_float(cell) and not math.isfinite(float(cell)):
                    raise DataError(f"{path}: non-finite label {cell!r} at row {line}, column {i + 1}")
                raw_labels.append(cell)
                continue
            if cell == missing_token:
                values.append(math.nan)
                continue
            try:
                value = float(cell)
            except ValueError:
                raise DataError(f"{path}: unparseable cell {cell!r} at row {line}, column {i + 1}") from None
            if not math.isfinite(value):
                raise DataError(f"{path}: non-finite cell {cell!r} at row {line}, column {i + 1}")
            values.append(value)
        features.append(values)

    numeric = all(_parses_as_float(v) for v in set(raw_labels))
    keys = [float(v) for v in raw_labels] if numeric else raw_labels
    distinct = sorted(set(keys))
    if len(distinct) > 2:
        raise DataError(f"{path}: label column has {len(distinct)} distinct values, expected at most 2")
    mapping = {v: i for i, v in enumerate(distinct)}
    labels = np.array([mapping[v] for v in keys], dtype=np.int64)

    if names is None:
        names = [f"f{j}" for j in range(width - 1)]
    return Dataset(features, labels, tuple(names), minority_label_of(labels))


def impute_mean(train: Dataset, others=()) -> tuple[Dataset, list[Dataset]]:
    """Replace missing cells with the per-feature mean of the training partition.

    The same training means fill missing cells in every other partition.
    Datasets without missing cells are returned unchanged, so the operation is
    idempotent and bit-preserving for clean inputs.
    """
    feats = train.features
    all_missing = np.isnan(feats).all(axis=0)
    if all_missing.any():
        bad = [train.feature_names[j] for j in np.flatnonzero(all_missing)]
        raise DataError(f"features entirely missing in the training partition: {bad}")
    with np.errstate(invalid="ignore"):
        means = np.nanmean(feats, axis=0)

    def fill(ds: Dataset) -> Dataset:
        mask = np.isnan(ds.features)
        if not mask.any():
            return ds
        return ds.with_features(np.where(mask, means, ds.features))

    return fill(train), [fill(ds) for ds in others]


def standardize(train: Dataset) -> tuple[PreprocessStats, Dataset]:
    """Fit per-feature means and sample stds on ``train`` and scale it with them.

    Zero-variance training columns are recorded with std 0 and divided by 1,
    so they come out identically zero. A training column whose mean or std
    overflows raises :class:`DataError`. Other partitions are scaled with
    :meth:`PreprocessStats.apply` on the returned statistics.
    """
    if np.isnan(train.features).any():
        raise DataError("standardize requires imputation to have run first")
    with np.errstate(over="ignore", invalid="ignore"):
        means = train.features.mean(axis=0)
        stds = train.features.std(axis=0, ddof=1)
    overflowed = ~(np.isfinite(means) & np.isfinite(stds))
    if overflowed.any():
        bad = [train.feature_names[j] for j in np.flatnonzero(overflowed)]
        raise DataError(f"training features too large to standardize (mean or std overflows): {bad}")
    stats = PreprocessStats(means, stds)
    return stats, stats.apply(train, "training")


def split(ds: Dataset, seed: int) -> tuple[Dataset, Dataset, Dataset]:
    """Randomly partition ``ds`` into train/validation/test.

    Partition sizes are floor(n * ratio) for the ratios of
    :data:`SPLIT_RATIOS`, with the remainder assigned to train.
    A split that cannot succeed fails before any draw: a dataset without both
    classes raises :class:`DataError`, and one where a partition would hold
    fewer than 2 rows or a class has fewer than 3 rows raises
    :class:`ExperimentError`. Otherwise the permutation is redrawn (bounded
    retries) until every partition holds at least one sample of each class;
    the draw sequence is fully determined by ``seed``.
    """
    seed = _integer(seed, "seed", 0)
    n = ds.n_samples
    sizes = [math.floor(n * r) for r in SPLIT_RATIOS]
    sizes[0] += n - sum(sizes)
    counts = ds.class_counts
    if min(counts) == 0:
        raise DataError(f"dataset needs samples of both classes, got class counts {counts}")
    if min(sizes) < 2 or min(counts) < 3:
        raise ExperimentError(
            f"no split can put every class in every partition: partitions of sizes "
            f"{tuple(sizes)} need at least 2 rows each and class counts {counts} "
            "at least 3 each"
        )
    rng = np.random.default_rng(seed)
    for _ in range(_SPLIT_RETRIES):
        perm = rng.permutation(n)
        parts = (
            perm[: sizes[0]],
            perm[sizes[0] : sizes[0] + sizes[1]],
            perm[sizes[0] + sizes[1] :],
        )
        if all(np.isin((0, 1), ds.labels[p]).all() for p in parts):
            return tuple(
                Dataset(ds.features[p], ds.labels[p], ds.feature_names, ds.minority_label)
                for p in parts
            )
    raise ExperimentError(
        f"split retry budget exhausted: a partition of sizes {tuple(sizes)} "
        f"cannot hold every class (counts {counts})"
    )
