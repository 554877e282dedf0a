import contextlib
import io
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from opfsample.cli import main, parse_balance_mode, parse_grid
from opfsample.errors import UsageError
from opfsample.harness import METHODS

from helpers import blob_dataset, write_dataset_csv


@pytest.fixture
def csv_path(tmp_path):
    X, y = blob_dataset(np.random.default_rng(81), n_maj=50, n_min=20, m=3, sep=2.5)
    return write_dataset_csv(tmp_path / "toy.csv", X, y)


def test_parse_grid_forms():
    assert parse_grid("5:20:5") == (5, 10, 15, 20)
    assert parse_grid("5:7") == (5, 6, 7)
    assert parse_grid("3,6,9") == (3, 6, 9)
    with pytest.raises(UsageError):
        parse_grid("5:1:2")
    with pytest.raises(UsageError):
        parse_grid("a,b")


def test_parse_balance_mode():
    assert parse_balance_mode("balance")[0] == "balance_to_majority"
    mode, ratio = parse_balance_mode("ratio:0.5")
    assert mode == "ratio" and ratio == 0.5
    with pytest.raises(UsageError):
        parse_balance_mode("ratio:x")
    with pytest.raises(UsageError):
        parse_balance_mode("nope")


def test_inspect_text_and_json(csv_path, capsys):
    assert main(["inspect", "--data", str(csv_path)]) == 0
    out = capsys.readouterr().out
    assert "70 samples x 3 features" in out
    assert main(["inspect", "--data", str(csv_path), "--format", "json"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["samples"] == 70
    assert info["minority_label"] == 1
    assert info["missing_cells"] == 0


def test_run_writes_reports_and_is_deterministic(csv_path, tmp_path, capsys):
    out_dir = tmp_path / "out"
    args = [
        "run", "--data", str(csv_path), "--method", "smote", "--grid", "3,5",
        "--trials", "2", "--seed", "7", "--out-dir", str(out_dir),
    ]
    assert main(args) == 0
    text = capsys.readouterr().out
    assert text.startswith("method smote")
    report = (out_dir / "smote_report.json").read_bytes()
    trials = (out_dir / "smote_trials.csv").read_bytes()
    trace = (out_dir / "smote_validation_trace.csv").read_bytes()
    assert main(args) == 0
    capsys.readouterr()
    assert (out_dir / "smote_report.json").read_bytes() == report
    assert (out_dir / "smote_trials.csv").read_bytes() == trials
    assert (out_dir / "smote_validation_trace.csv").read_bytes() == trace
    payload = json.loads(report)
    assert payload["config"]["method"] == "smote"
    assert len(payload["trials"]) == 2


def test_run_json_and_csv_stdout(csv_path, capsys):
    base = ["run", "--data", str(csv_path), "--method", "none", "--trials", "1"]
    assert main(base + ["--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["method"] == "none"
    assert main(base + ["--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("trial,seed,chosen")


def test_compare_subcommand(csv_path, tmp_path, capsys):
    out_dir = tmp_path / "cmp"
    assert main([
        "compare", "--data", str(csv_path), "--method", "none,smote",
        "--grid", "3,5", "--trials", "2", "--out-dir", str(out_dir),
    ]) == 0
    text = capsys.readouterr().out
    assert "none" in text and "smote" in text
    assert (out_dir / "comparison.json").exists()
    assert (out_dir / "comparison.csv").exists()
    assert (out_dir / "none_report.json").exists()
    assert (out_dir / "smote_report.json").exists()


def test_usage_errors_exit_1(csv_path, capsys):
    assert main(["run"]) == 1  # no --data
    capsys.readouterr()
    assert main(["bogus"]) == 1
    capsys.readouterr()
    assert main(["run", "--data", str(csv_path), "--method", "nope"]) == 1
    capsys.readouterr()
    assert main(["compare", "--data", str(csv_path), "--method", "smote,nope"]) == 1
    capsys.readouterr()
    assert main(["run", "--data", str(csv_path), "--grid", "x"]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--trials", "0"],
        ["run", "--grid", "0"],
        ["compare", "--trials", "0"],
        ["run", "--balance-mode", "ratio:-1"],
        ["run", "--balance-mode", "ratio:nan"],
        ["compare", "--balance-mode", "ratio:inf"],
        ["compare", "--method", ","],
        ["run", "--seed", "-1"],
        ["compare", "--method", ""],
        ["run", "--tri", "1"],  # flags are never abbreviated
    ],
)
def test_invalid_values_exit_1(csv_path, capsys, argv):
    assert main([*argv, "--data", str(csv_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("ratio", ["1e300", "1e308"])
def test_huge_ratio_exits_3(csv_path, capsys, ratio):
    argv = ["run", "--data", str(csv_path), "--method", "smote", "--balance-mode", f"ratio:{ratio}"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("experiment failed: ") and "rows, more than the cap of 20000" in err


@pytest.fixture
def empty_cell_csv(tmp_path):
    X, y = blob_dataset(np.random.default_rng(87), n_maj=50, n_min=20, m=3, sep=2.5)
    return write_dataset_csv(tmp_path / "gap.csv", X, y, missing_cells=[(3, 1)], missing_token="")


@pytest.mark.parametrize("via_config", [False, True])
def test_empty_missing_token_marks_empty_cells(empty_cell_csv, tmp_path, capsys, via_config):
    if via_config:
        cfg = tmp_path / "gap.cfg"
        cfg.write_text(f"data = {empty_cell_csv}\nmissing_token =\n")
        given = ["--config", str(cfg)]
    else:
        given = ["--data", str(empty_cell_csv), "--missing-token", ""]
    assert main(["inspect", *given, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["missing_cells"] == 1
    assert main(["run", *given, "--method", "none", "--trials", "1"]) == 0
    # with the default token the empty cell does not parse
    assert main(["inspect", "--data", str(empty_cell_csv)]) == 2


def test_data_errors_exit_2(tmp_path, capsys):
    assert main(["inspect", "--data", str(tmp_path / "absent.csv")]) == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2,0\n3,zzz,1\n4,5,0\n")
    assert main(["inspect", "--data", str(bad)]) == 2


def test_single_class_csv_is_a_data_error(tmp_path, capsys):
    X = np.random.default_rng(83).normal(size=(30, 2))
    path = write_dataset_csv(tmp_path / "one_label.csv", X, np.zeros(30, dtype=int))
    assert main(["run", "--data", str(path), "--method", "none", "--trials", "1"]) == 2
    assert "data error:" in capsys.readouterr().err


def test_non_finite_cell_is_a_data_error(tmp_path, capsys):
    rng = np.random.default_rng(84)
    X = rng.normal(size=(30, 2))
    X[4, 1] = np.inf
    path = write_dataset_csv(tmp_path / "inf.csv", X, rng.integers(0, 2, size=30))
    assert main(["run", "--data", str(path), "--method", "none", "--trials", "1"]) == 2
    err = capsys.readouterr().err
    assert "data error:" in err and "row 5, column 2" in err


def test_experiment_failure_exits_3(tmp_path, capsys):
    # a single minority sample cannot reach all three partitions
    rng = np.random.default_rng(82)
    X = rng.normal(size=(30, 2))
    y = np.zeros(30, dtype=int)
    y[0] = 1
    path = write_dataset_csv(tmp_path / "degenerate.csv", X, y)
    assert main(["run", "--data", str(path), "--method", "none", "--trials", "1"]) == 3


def test_one_minority_row_in_training_exits_3(tmp_path, capsys):
    rng = np.random.default_rng(85)
    y = np.array([0] * 20 + [1] * 3)
    path = write_dataset_csv(tmp_path / "three_minority.csv", rng.normal(size=(23, 2)), y)
    argv = ["run", "--data", str(path), "--method", "smote", "--trials", "1", "--grid", "1"]
    assert main(argv) == 3
    assert "fewer than two minority samples" in capsys.readouterr().err


@pytest.fixture
def labelled_csv(tmp_path):
    # the label sits in the first column, named "outcome"; 1 is the minority label
    path = tmp_path / "labelled.csv"
    rows = [f"{int(i % 4 == 0)},{i}.5,{i * i}" for i in range(12)]
    path.write_text("outcome,age,mass\n" + "\n".join(rows) + "\n")
    return path


@pytest.mark.parametrize("label_col", ["outcome", "0"])
@pytest.mark.parametrize("via_config", [False, True])
def test_label_column_by_name_or_index(labelled_csv, tmp_path, capsys, label_col, via_config):
    if via_config:
        cfg = tmp_path / "label.cfg"
        cfg.write_text(f"data = {labelled_csv}\nlabel_col = {label_col}\n")
        given = ["--config", str(cfg)]
    else:
        given = ["--data", str(labelled_csv), "--label-col", label_col]
    assert main(["inspect", *given, "--format", "json"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["feature_names"] == ["age", "mass"]
    assert info["minority_label"] == 1


def test_config_file_with_flag_override(csv_path, tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "# benchmark settings\n"
        f"data = {csv_path}\n"
        "method = smote\n"
        "grid = 3,5\n"
        "trials = 2\n"
        "seed = 11\n"
    )
    assert main(["run", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "method smote" in out
    assert "2 trials, base seed 11" in out
    # command line overrides the file
    assert main(["run", "--config", str(cfg), "--trials", "1", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["trials"] == 1
    assert payload["config"]["base_seed"] == 11


def test_config_file_errors(csv_path, tmp_path, capsys):
    missing = tmp_path / "nope.cfg"
    assert main(["run", "--config", str(missing)]) == 1
    bad = tmp_path / "bad.cfg"
    bad.write_text("data\n")
    assert main(["run", "--config", str(bad)]) == 1
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("frobnicate = 3\n")
    assert main(["run", "--config", str(unknown)]) == 1
    # file values pass the same checks as flags, before any work is done;
    # keys are the subcommand's own flags, spelt out (inspect has no --trials,
    # and no key abbreviates one)
    for command, line in (
        ("run", "format = xml"), ("inspect", "format = csv"), ("run", "seed = -1"),
        ("inspect", "trials = 2"), ("run", "config = other.cfg"), ("compare", "method ="),
        ("run", "tri = 1"),
    ):
        capsys.readouterr()
        checked = tmp_path / "checked.cfg"
        checked.write_text(f"data = {csv_path}\n{line}\n")
        assert main([command, "--config", str(checked)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "run" in capsys.readouterr().out


def test_module_entry_point(csv_path):
    proc = subprocess.run(
        [sys.executable, "-m", "opfsample", "inspect", "--data", str(csv_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "70 samples" in proc.stdout


@pytest.fixture(scope="module")
def argv_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("argv")
    X, y = blob_dataset(np.random.default_rng(85), n_maj=50, n_min=20, m=3, sep=2.5)
    write_dataset_csv(d / "toy.csv", X, y)
    return d


def _optional(flag, values):
    return st.one_of(st.just([]), st.sampled_from(values).map(lambda v: [flag, str(v)]))


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(("run", "compare", "inspect")))
    flags = [_optional("--format", ("text", "json", "csv"))]
    if command != "inspect":
        methods = METHODS if command == "run" else ("none,smote", "o2pf,adasyn", ",")
        flags = [
            _optional("--method", methods),
            _optional("--trials", range(-1, 3)),
            _optional("--seed", range(-2, 3)),
            _optional("--grid", ("3", "0", ",", "5:1", "2:4")),
            _optional("--balance-mode", ("balance", "ratio:0.5", "ratio:-1", "ratio:nan", "ratio:x")),
            _optional("--out-dir", ("out",)),
            *flags,
        ]
    argv = [command]
    for flag in flags:
        argv += draw(flag)
    return argv, draw(st.sampled_from((None, "text", "json", "csv", "xml")))


@given(case=_argv())
def test_any_argv_ends_in_a_documented_exit_code(argv_dir, case):
    argv, config_format = case
    # a config file sets the data path and, on some draws, the stdout format
    cfg = argv_dir / "exp.cfg"
    lines = [f"data = {argv_dir / 'toy.csv'}"]
    if config_format is not None:
        lines.append(f"format = {config_format}")
    cfg.write_text("\n".join(lines) + "\n")
    argv = [argv_dir / "out" if a == "out" else a for a in argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([*map(str, argv), "--config", str(cfg)])
    assert code in (0, 1, 2, 3)


@pytest.fixture(scope="module")
def csv_fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv_fuzz")


_NUMBER = st.floats(-50, 50, allow_nan=False).map(lambda v: f"{v:.3f}")
_ODD_CELL = st.sampled_from(("", "?", "?", "inf", "-Infinity", "nan", "NaN", "1e999", "x"))


@st.composite
def _csv_file(draw):
    width = draw(st.integers(2, 4))
    labels = st.sampled_from(draw(st.sampled_from((("a",), ("0", "1"), ("0", "1"), ("p", "q", "r")))))
    n = draw(st.integers(1, 40))
    rows = [[draw(_NUMBER) for _ in range(width - 1)] + [draw(labels)] for _ in range(n)]
    at = st.tuples(st.integers(0, n - 1), st.integers(0, width - 2))
    for r, c in draw(st.lists(at, max_size=2)):
        rows[r][c] = draw(_ODD_CELL)
    for r in draw(st.lists(st.integers(0, n - 1), max_size=1)):  # a ragged row
        rows[r] = rows[r][1:] if draw(st.booleans()) else ["0", *rows[r]]
    if draw(st.integers(0, 3)) == 0:  # an all-missing column
        c = draw(st.integers(0, width - 2))
        for row in rows:
            row[min(c, len(row) - 2)] = "?"
    rows += draw(st.lists(st.sampled_from(rows), max_size=5))  # duplicate rows
    if draw(st.booleans()):
        rows.insert(0, [f"f{j}" for j in range(width - 1)] + ["label"])
    text = "".join(",".join(row) + "\n" for row in rows).encode()
    return text + draw(st.sampled_from((b"", b"", b"", b"\xff\xfe", b"caf\xe9\n")))


@given(content=_csv_file())
def test_any_small_csv_ends_in_a_documented_exit_code(csv_fuzz_dir, content):
    path = csv_fuzz_dir / "fuzz.csv"
    path.write_bytes(content)
    data = ["--data", str(path)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["inspect", *data]) in (0, 1, 2, 3)
        assert main(["run", *data, "--method", "none", "--trials", "1"]) in (0, 1, 2, 3)
