"""Golden bytes for every report emitter.

The reports are built by hand from fixed trials, with no pipeline run, so
these tests pin the emitters alone. The expected bytes live in ``golden/``,
one file per output: the names ``write_comparison_files`` writes, plus
``comparison.txt`` and ``<method>_report.txt`` for the text renderers.

The three methods cover each shape of cell. ``none`` has no chosen value.
``smote`` differs from the best method (``o2pf``) on all six trials, so its
test is conclusive and its p-value is printed. ``none`` differs on two
trials only, so its test is inconclusive (``n/a``) and it is marked
equivalent (``*``), as is the best method against itself.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from opfsample import harness
from opfsample.harness import (
    ComparisonReport,
    ExperimentConfig,
    ExperimentReport,
    TrialReport,
    comparison_csv,
    comparison_to_json,
    render_comparison_text,
    render_report_text,
    report_to_json,
    trials_csv,
    validation_trace_csv,
)

GOLDEN = Path(__file__).parent / "golden"
BASE_SEED = 11

# method -> grid, then one (chosen, recall, accuracy, f1) per trial
TRIALS = {
    "none": (None, [
        (None, 0.75, 0.9375, 0.25), (None, 1.0, 0.9375, 0.5), (None, 0.75, 0.9375, 0.25),
        (None, 1.0, 0.875, 0.5), (None, 0.5, 0.875, 0.25), (None, 0.5, 0.875, 0.5),
    ]),
    "o2pf": ((5, 10), [
        (5, 0.75, 0.875, 0.5), (10, 1.0, 0.9375, 0.75), (5, 0.75, 0.875, 0.5),
        (10, 1.0, 0.9375, 0.75), (5, 0.75, 0.875, 0.5), (10, 1.0, 0.9375, 0.75),
    ]),
    "smote": ((3, 9), [
        (3, 0.5, 0.8125, 0.5), (3, 0.75, 0.8125, 0.5), (3, 0.5, 0.8125, 0.5),
        (9, 0.75, 0.8125, 0.5), (9, 0.5, 0.8125, 0.5), (9, 0.75, 0.8125, 0.5),
    ]),
}


def _report(method: str) -> ExperimentReport:
    grid, rows = TRIALS[method]
    cfg = ExperimentConfig(data_path="golden.csv", method=method, grid=grid,
                           trials=len(rows), base_seed=BASE_SEED)
    trials = []
    for t, (chosen, recall, accuracy, f1) in enumerate(rows):
        trace = tuple((g, recall if g == chosen else recall / 2) for g in grid or ())
        counts = (40, 20) if method == "none" else (40, 40)
        trials.append(TrialReport(t, BASE_SEED + t, chosen, recall, accuracy, f1, trace, counts))
    return ExperimentReport(cfg, tuple(trials))


def _comparison() -> ComparisonReport:
    return ComparisonReport(tuple(_report(method) for method in TRIALS))


def _golden(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


def test_the_fixture_covers_both_verdicts():
    rows = {row.method: row for row in _comparison().rows}
    assert rows["o2pf"].is_best
    assert rows["smote"].test.conclusive and not rows["smote"].equivalent
    assert not rows["none"].test.conclusive and rows["none"].equivalent


def test_comparison_emitters_match_golden():
    cmp = _comparison()
    assert render_comparison_text(cmp) == _golden("comparison.txt")
    assert comparison_csv(cmp) == _golden("comparison.csv")
    assert comparison_to_json(cmp) == _golden("comparison.json")


@pytest.mark.parametrize("method", TRIALS)
def test_experiment_emitters_match_golden(method):
    report = _report(method)
    assert render_report_text(report) == _golden(f"{method}_report.txt")
    assert report_to_json(report) == _golden(f"{method}_report.json")
    assert trials_csv(report) == _golden(f"{method}_trials.csv")
    assert validation_trace_csv(report) == _golden(f"{method}_validation_trace.csv")


def test_written_comparison_files_match_golden(tmp_path):
    paths = harness.write_comparison_files(_comparison(), tmp_path)
    names = ["comparison.json", "comparison.csv"]
    names += [f"{m}_{kind}" for m in TRIALS for kind in
              ("report.json", "trials.csv", "validation_trace.csv")]
    assert [p.name for p in paths] == names
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
    for path in paths:
        assert path.read_bytes() == (GOLDEN / path.name).read_bytes()
