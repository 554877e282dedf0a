import os
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from opfsample import data
from opfsample.data import (
    Dataset,
    PreprocessStats,
    impute_mean,
    load_csv,
    minority_label_of,
    split,
    standardize,
)
from opfsample.errors import DataError, ExperimentError
from opfsample.harness import ExperimentConfig

from helpers import NOT_INTEGERS, write_dataset_csv


def test_minority_label_counts_and_tie():
    assert minority_label_of([0, 0, 0, 1]) == 1
    assert minority_label_of([1, 1, 1, 0]) == 0
    assert minority_label_of([0, 0, 1, 1]) == 1  # tie resolves to 1


def test_dataset_validation():
    with pytest.raises(DataError):
        Dataset(np.zeros((1, 3)), np.array([0]), ("a", "b", "c"), 0)
    with pytest.raises(DataError):
        Dataset(np.zeros((3, 2)), np.array([0, 1, 2]), ("a", "b"), 0)
    with pytest.raises(DataError):
        Dataset(np.zeros((3, 2)), np.array([0, 1]), ("a", "b"), 0)
    with pytest.raises(DataError, match="minority_label"):
        Dataset(np.zeros((3, 2)), np.array([0, 1, 1]), ("a", "b"), 2)
    with pytest.raises(DataError, match="feature_names"):
        Dataset(np.zeros((3, 2)), np.array([0, 1, 1]), ("a", "b", "c"), 0)
    ds = Dataset.from_arrays(np.zeros((3, 2)), [0, 1, 1])
    assert ds.minority_label == 0
    with pytest.raises(ValueError):
        ds.features[0, 0] = 5.0  # immutable


def test_from_arrays_reports_a_feature_array_that_is_not_a_matrix():
    for features in (np.zeros(4), np.zeros(()), np.zeros((4, 1, 1))):
        with pytest.raises(DataError, match="features must be a 2-D matrix"):
            Dataset.from_arrays(features, [0, 1, 0, 1])


def test_labels_are_checked_before_the_cast():
    # a cast would have read these as 0, 1, 0
    with pytest.raises(DataError, match="labels must take values"):
        Dataset.from_arrays(np.zeros((3, 1)), np.array([0.5, 1.7, 0.0]))


def test_dataset_and_stats_hold_read_only_copies():
    feats, labels = np.zeros((3, 2)), np.array([0, 1, 1])
    means, stds = np.zeros(2), np.ones(2)
    ds, stats = Dataset.from_arrays(feats, labels), PreprocessStats(means, stds)
    for given_arr, held in ((feats, ds.features), (labels, ds.labels),
                            (means, stats.means), (stds, stats.stds)):
        assert given_arr.flags.writeable
        assert not held.flags.writeable
        assert not np.shares_memory(given_arr, held)


def test_load_csv_counts_minority_fraction(tmp_path):
    # mirrors the real prognostic task's class balance: 151 vs 47
    rng = np.random.default_rng(0)
    X = rng.normal(size=(198, 5))
    y = np.array([0] * 151 + [1] * 47)
    path = write_dataset_csv(tmp_path / "prog.csv", X, y)
    ds = load_csv(path)
    assert ds.n_samples == 198
    assert ds.minority_label == 1
    assert ds.minority_count == 47
    assert ds.minority_count / ds.n_samples == pytest.approx(0.237, abs=5e-4)


def test_load_csv_no_missing_three_rows(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("1.0,2.0,0\n3.5,4.5,1\n5.0,6.0,0\n")
    ds = load_csv(path)
    assert ds.n_missing == 0
    assert ds.n_samples == 3
    np.testing.assert_array_equal(ds.labels, [0, 1, 0])


def test_load_csv_takes_only_a_file_path(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("1.0,2.0,0\n3.5,4.5,1\n5.0,6.0,0\n7.0,8.0,1\n")
    # an int would be read as a file descriptor and closed; it is refused before any open
    fd = os.open(path, os.O_RDONLY)
    try:
        with pytest.raises(DataError, match=f"got {fd}"):
            load_csv(fd)
        with pytest.raises(DataError):
            ExperimentConfig(data_path=fd).load_dataset()
        os.fstat(fd)  # still open
    finally:
        os.close(fd)
    for bad in (None, 3.0, True):
        with pytest.raises(DataError, match="must be a file path"):
            load_csv(bad)
    for good in (str(path), os.fsencode(path), path):
        assert load_csv(good).n_samples == 4


def test_load_csv_missing_token_count_matches_text_scan(tmp_path):
    rng = np.random.default_rng(1)
    X = rng.normal(size=(40, 6))
    y = rng.integers(0, 2, size=40)
    y[:3] = [0, 1, 0]
    cells = {(i, j) for i, j in zip(rng.integers(0, 40, 17), rng.integers(0, 6, 17))}
    path = write_dataset_csv(tmp_path / "mm.csv", X, y, missing_cells=cells)
    # independent oracle: count the token occurrences straight off the text
    scanned = sum(line.split(",").count("?") for line in path.read_text().splitlines())
    ds = load_csv(path)
    assert ds.n_missing == scanned == len(cells)


def test_load_csv_header_by_name_and_index(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("age,mass,outcome\n1,2,0\n3,4,1\n5,6,1\n")
    ds = load_csv(path, label_column="outcome")
    assert ds.feature_names == ("age", "mass")
    np.testing.assert_array_equal(ds.labels, [0, 1, 1])
    ds2 = load_csv(path, label_column=-1)  # header detected, index resolved
    np.testing.assert_array_equal(ds2.features, ds.features)
    path2 = tmp_path / "nh.csv"
    path2.write_text("1,2,0\n3,4,1\n5,6,1\n")
    ds3 = load_csv(path2)
    assert ds3.feature_names == ("f0", "f1")
    np.testing.assert_array_equal(ds3.features, ds.features)


def test_load_csv_drops_a_utf8_byte_order_mark(tmp_path):
    # the mark is not part of the first cell, so no data row is read as a header
    rows = b"1.0,2.0,0\n3.0,4.0,1\n5.0,6.0,0\n7.0,8.0,1\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_bytes(rows)
    marked.write_bytes(b"\xef\xbb\xbf" + rows)
    ds, want = load_csv(marked), load_csv(plain)
    assert ds.feature_names == want.feature_names == ("f0", "f1")
    assert ds.n_samples == 4 and ds.minority_label == want.minority_label
    np.testing.assert_array_equal(ds.features, want.features)
    np.testing.assert_array_equal(ds.labels, [0, 1, 0, 1])
    headered = tmp_path / "bom_header.csv"
    headered.write_bytes(b"\xef\xbb\xbfoutcome,a,b\n0,1,2\n1,3,4\n")
    ds = load_csv(headered, label_column="outcome")
    assert ds.feature_names == ("a", "b")
    np.testing.assert_array_equal(ds.labels, [0, 1])


def test_load_csv_label_in_middle_column_with_text_labels(tmp_path):
    path = tmp_path / "mid.csv"
    path.write_text("1.5,N,2.5\n2.5,R,3.5\n0.5,N,1.0\n")
    ds = load_csv(path, label_column=1)
    np.testing.assert_array_equal(ds.labels, [0, 1, 0])  # lexicographic: N->0, R->1
    np.testing.assert_allclose(ds.features, [[1.5, 2.5], [2.5, 3.5], [0.5, 1.0]])


def test_load_csv_numeric_label_mapping(tmp_path):
    path = tmp_path / "num.csv"
    path.write_text("1,2\n2,4\n3,2\n")
    ds = load_csv(path)
    np.testing.assert_array_equal(ds.labels, [0, 1, 0])  # 2 -> 0, 4 -> 1


def test_load_csv_errors(tmp_path):
    with pytest.raises(DataError):
        load_csv(tmp_path / "missing.csv")
    empty = tmp_path / "empty.csv"
    empty.write_text("\n\n")
    with pytest.raises(DataError):
        load_csv(empty)
    bad_cell = tmp_path / "bad.csv"
    bad_cell.write_text("1,2,0\n2,x,1\n3,4,0\n")
    with pytest.raises(DataError, match="unparseable"):
        load_csv(bad_cell)
    three_labels = tmp_path / "three.csv"
    three_labels.write_text("1,a\n2,b\n3,c\n")
    with pytest.raises(DataError, match="distinct"):
        load_csv(three_labels)
    no_col = tmp_path / "nocol.csv"
    no_col.write_text("a,b\n1,0\n2,1\n")
    with pytest.raises(DataError, match="not found"):
        load_csv(no_col, label_column="missing")
    with pytest.raises(DataError, match="out of range"):
        load_csv(no_col, label_column=2)
    # an index passes the one integer rule: no bool, no float, not even 1.0
    for label_column in (True, np.bool_(True), 1.5, 1.9, 1.0):
        with pytest.raises(ValueError, match="^label_column must be an integer"):
            load_csv(no_col, label_column=label_column)
    assert load_csv(no_col, label_column=np.int64(1)).labels.tolist() == [0, 1]
    one_col = tmp_path / "onecol.csv"
    one_col.write_text("0\n1\n0\n")
    with pytest.raises(DataError, match="at least one feature column"):
        load_csv(one_col)
    header_only = tmp_path / "header.csv"
    header_only.write_text("a,b,label\n")
    with pytest.raises(DataError, match="no data rows"):
        load_csv(header_only)


@pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "NaN", "1e999"])
def test_load_csv_rejects_non_finite_cells(tmp_path, cell):
    path = tmp_path / "nonfinite.csv"
    path.write_text(f"1,2,0\n3,4,1\n5,{cell},0\n")
    with pytest.raises(DataError, match=r"non-finite cell .* at row 3, column 2"):
        load_csv(path)


def test_load_csv_numbers_rows_by_their_line_in_the_file(tmp_path):
    path = tmp_path / "gap.csv"
    path.write_text("a,b,label\n1,2,0\n\n3,x,1\n")
    with pytest.raises(DataError, match=r"unparseable cell 'x' at row 4, column 2"):
        load_csv(path)
    path.write_text("a,b,label\n1,2,0\n\n3,4\n")
    with pytest.raises(DataError, match=r"row 4 has 2 cells, expected 3"):
        load_csv(path)


@pytest.mark.parametrize("token, cell", [("?", "?"), ("?", ""), ("", ""), ("NA", "NA")])
def test_load_csv_rejects_a_missing_label(tmp_path, token, cell):
    path = tmp_path / "unlabeled.csv"
    path.write_text(f"a,b,label\n1,2,1\n3,4,{cell}\n5,6,1\n7,8,{cell}\n9,10,1\n")
    with pytest.raises(DataError, match=re.escape(f"missing label {cell!r} at row 3, column 3")):
        load_csv(path, missing_token=token)
    # in a middle label column, and before the labels are counted and mapped
    path.write_text(f"1,a,2\n3,b,4\n5,{cell},6\n7,c,8\n")
    with pytest.raises(DataError, match=re.escape(f"missing label {cell!r} at row 3, column 2")):
        load_csv(path, label_column=1, missing_token=token)


@pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "NaN", "1e999", "Infinity"])
def test_load_csv_rejects_a_non_finite_label(tmp_path, cell):
    # inf beside three 1s would read as the minority class; NaN beside two
    # real labels would fail as a third distinct value
    path = tmp_path / "nonfinite_label.csv"
    path.write_text(f"a,b,label\n1,2,1\n3,4,{cell}\n5,6,1\n7,8,1\n")
    with pytest.raises(DataError, match=re.escape(f"non-finite label {cell!r} at row 3, column 3")):
        load_csv(path)
    path.write_text(f"a,b,label\n1,2,0\n3,4,1\n5,6,{cell}\n")
    with pytest.raises(DataError, match=re.escape(f"non-finite label {cell!r} at row 4, column 3")):
        load_csv(path)
    # in a middle label column too, and a finite number or a class name still loads
    path.write_text(f"1,0,2\n3,1,4\n5,{cell},6\n")
    with pytest.raises(DataError, match=re.escape(f"non-finite label {cell!r} at row 3, column 2")):
        load_csv(path, label_column=1)
    path.write_text("1,0.5,2\n3,1e300,4\n5,infant,6\n")
    with pytest.raises(DataError, match="3 distinct values"):
        load_csv(path, label_column=1)


def test_load_csv_rejects_non_utf8_bytes(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"1,2,0\n3,4,1\n5,6,0\n\xff\xfe\n")
    with pytest.raises(DataError, match="not a readable UTF-8 CSV"):
        load_csv(path)


def test_load_csv_rejects_an_oversized_field(tmp_path):
    path = tmp_path / "huge.csv"
    path.write_text("1,2,0\n3,4,1\n5," + "6" * 200_000 + ",0\n")
    with pytest.raises(DataError, match="not a readable UTF-8 CSV"):
        load_csv(path)


def test_load_csv_missing_token_may_spell_a_non_finite_number(tmp_path):
    path = tmp_path / "nan_missing.csv"
    path.write_text("1,2,0\n3,nan,1\n5,6,0\n")
    ds = load_csv(path, missing_token="nan")
    assert ds.n_missing == 1
    assert np.isnan(ds.features[1, 1])


def test_split_rejects_a_single_class_dataset():
    ds = Dataset.from_arrays(np.arange(40.0).reshape(20, 2), np.zeros(20, dtype=int))
    with pytest.raises(DataError, match="both classes"):
        split(ds, 1)


def test_impute_mean_simple_column():
    train = Dataset.from_arrays(np.array([[1.0], [np.nan], [3.0]]), [0, 1, 0])
    out, _ = impute_mean(train)
    np.testing.assert_array_equal(out.features[:, 0], [1.0, 2.0, 3.0])


def test_impute_uses_train_mean_not_partition_mean():
    # 5-row fixture; hand-recompute both means and assert the train one is used
    train = Dataset.from_arrays(
        np.array([[2.0, 1.0], [4.0, 1.0], [6.0, 1.0], [8.0, 1.0], [np.nan, 1.0]]),
        [0, 0, 0, 1, 1],
    )
    val = Dataset.from_arrays(
        np.array([[100.0, 1.0], [np.nan, 1.0], [300.0, 1.0]]), [0, 1, 1]
    )
    train_mean = (2.0 + 4.0 + 6.0 + 8.0) / 4  # 5.0
    val_mean = (100.0 + 300.0) / 2  # 200.0, must NOT be used
    out_train, (out_val,) = impute_mean(train, [val])
    assert out_train.features[4, 0] == train_mean
    assert out_val.features[1, 0] == train_mean
    assert out_val.features[1, 0] != val_mean


def test_impute_no_missing_is_bit_identical_and_idempotent():
    train = Dataset.from_arrays(np.array([[1.0, 2.0], [3.0, 4.0]]), [0, 1])
    out, _ = impute_mean(train)
    assert out is train
    messy = Dataset.from_arrays(np.array([[1.0, np.nan], [3.0, 4.0]]), [0, 1])
    once, _ = impute_mean(messy)
    twice, _ = impute_mean(once)
    np.testing.assert_array_equal(once.features, twice.features)


def test_impute_entirely_missing_feature_errors():
    train = Dataset.from_arrays(np.array([[np.nan, 1.0], [np.nan, 2.0]]), [0, 1])
    with pytest.raises(DataError, match="entirely missing"):
        impute_mean(train)


def test_standardize_column_2_4_6():
    train = Dataset.from_arrays(np.array([[2.0], [4.0], [6.0]]), [0, 0, 1])
    stats, out = standardize(train)
    assert abs(out.features[:, 0].mean()) < 1e-9
    assert abs(out.features[:, 0].std(ddof=1) - 1.0) < 1e-9
    assert stats.means[0] == 4.0
    assert stats.stds[0] == 2.0


def test_standardize_constant_column_becomes_zero():
    train = Dataset.from_arrays(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]), [0, 1, 1])
    stats, out = standardize(train)
    assert stats.stds[0] == 0.0
    np.testing.assert_array_equal(out.features[:, 0], [0.0, 0.0, 0.0])


def test_standardize_applies_train_stats_to_validation():
    train = Dataset.from_arrays(np.array([[1.0], [2.0], [3.0], [6.0]]), [0, 0, 1, 1])
    val = Dataset.from_arrays(np.array([[10.0], [20.0]]), [0, 1])
    stats, _ = standardize(train)
    out_val = stats.apply(val, "validation")
    mean = (1 + 2 + 3 + 6) / 4
    std = (sum((v - mean) ** 2 for v in (1, 2, 3, 6)) / 3) ** 0.5
    expected = (np.array([10.0, 20.0]) - mean) / std
    np.testing.assert_allclose(out_val.features[:, 0], expected, rtol=0, atol=1e-12)
    assert abs(out_val.features[:, 0].mean()) > 0.1  # train stats, not val stats


def test_standardize_round_trip():
    rng = np.random.default_rng(3)
    feats = rng.normal(size=(20, 4)) * rng.uniform(0.5, 4.0, size=4) + rng.normal(size=4)
    train = Dataset.from_arrays(feats, rng.integers(0, 2, 20))
    stats, out = standardize(train)
    np.testing.assert_allclose(out.features * stats.stds + stats.means, feats, atol=1e-9)


def test_standardize_requires_imputation():
    train = Dataset.from_arrays(np.array([[1.0], [np.nan]]), [0, 1])
    with pytest.raises(DataError):
        standardize(train)
    stats = PreprocessStats(np.zeros(1), np.ones(1))
    with pytest.raises(DataError, match="validation partition: impute missing cells"):
        stats.apply(train, "validation")


# (1e-3, 1e307): the scaled cell overflows; (1, 1e300): it is finite, but its
# square, and so every distance to it, overflows
@pytest.mark.parametrize("std, value", [(1e-3, 1e307), (1.0, 1e300)])
def test_preprocess_stats_apply_rejects_an_overflowing_row(std, value):
    stats = PreprocessStats(np.zeros(2), np.array([1.0, std]))
    part = Dataset.from_arrays(np.array([[1.0, 2.0], [3.0, value], [5.0, 6.0]]), [0, 1, 0],
                               feature_names=("a", "b"))
    message = f"holdout partition row 2, column 'b': value {value!r} is too large"
    with pytest.raises(DataError, match=re.escape(message)):
        stats.apply(part, "holdout")
    ok = stats.apply(part.with_features(np.ones((3, 2))), "holdout")
    np.testing.assert_array_equal(ok.features, np.ones((3, 2)) / [1.0, std])


def test_split_sizes_198():
    rng = np.random.default_rng(5)
    ds = Dataset.from_arrays(rng.normal(size=(198, 3)), np.r_[np.zeros(151), np.ones(47)])
    train, val, test = split(ds, 9)
    assert (train.n_samples, val.n_samples, test.n_samples) == (140, 29, 29)


def test_split_deterministic_and_seed_sensitive():
    rng = np.random.default_rng(6)
    ds = Dataset.from_arrays(rng.normal(size=(198, 3)), np.r_[np.zeros(151), np.ones(47)])
    a = split(ds, 4)
    b = split(ds, 4)
    c = split(ds, 5)
    for pa, pb in zip(a, b):
        np.testing.assert_array_equal(pa.features, pb.features)
        np.testing.assert_array_equal(pa.labels, pb.labels)
    assert any(
        pa.features.shape != pc.features.shape or not np.array_equal(pa.features, pc.features)
        for pa, pc in zip(a, c)
    )


def test_split_takes_only_a_nonnegative_integer_seed():
    rng = np.random.default_rng(6)
    ds = Dataset.from_arrays(rng.normal(size=(40, 2)), np.r_[np.zeros(25), np.ones(15)])
    for seed in (*NOT_INTEGERS, -1):
        with pytest.raises(ValueError, match="^seed must be"):
            split(ds, seed)
    for pa, pb in zip(split(ds, np.int64(3)), split(ds, 3)):
        np.testing.assert_array_equal(pa.features, pb.features)
        np.testing.assert_array_equal(pa.labels, pb.labels)


def test_split_round_trip_permutation_and_class_presence():
    rng = np.random.default_rng(7)
    ds = Dataset.from_arrays(rng.normal(size=(60, 2)), rng.integers(0, 2, 60))
    parts = split(ds, 11)
    stacked = np.vstack([p.features for p in parts])
    assert stacked.shape == ds.features.shape
    original = {tuple(row) for row in ds.features}
    recovered = {tuple(row) for row in stacked}
    assert original == recovered
    for p in parts:
        assert set(np.unique(p.labels)) == {0, 1}
    for p in parts:
        assert p.minority_label == ds.minority_label


def test_split_retry_exhaustion(monkeypatch):
    # a single minority sample cannot appear in all three partitions
    rng = np.random.default_rng(8)
    labels = np.zeros(30, dtype=int)
    labels[0] = 1
    ds = Dataset.from_arrays(rng.normal(size=(30, 2)), labels)
    with pytest.raises(ExperimentError, match="no split can"):
        split(ds, 1)
    # three minority rows can each reach a 2-row partition, but rarely do in 100 draws
    monkeypatch.setattr(data, "SPLIT_RATIOS", (0.98, 0.01, 0.01))
    labels = np.zeros(200, dtype=int)
    labels[:3] = 1
    ds = Dataset.from_arrays(np.arange(400.0).reshape(200, 2), labels)
    with pytest.raises(ExperimentError, match="retry budget"):
        split(ds, 1)


@given(st.integers(0, 2**32 - 1))
def test_split_partitions_are_disjoint_cover(seed):
    rng = np.random.default_rng(99)
    feats = np.arange(40, dtype=float).reshape(40, 1)  # distinct rows
    ds = Dataset.from_arrays(feats, np.r_[np.zeros(25), np.ones(15)])
    parts = split(ds, seed)
    seen = np.concatenate([p.features[:, 0] for p in parts])
    assert sorted(seen) == list(range(40))


def test_preprocess_stats_validation():
    with pytest.raises(ValueError):
        PreprocessStats(np.zeros(3), -np.ones(3))
    for means, stds in ((np.zeros(3), np.ones(2)), (np.zeros((1, 3)), np.ones((1, 3)))):
        with pytest.raises(ValueError, match="matching vectors"):
            PreprocessStats(means, stds)
