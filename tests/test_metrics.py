import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

import opfsample
from opfsample.metrics import (
    confusion,
    score,
    signed_rank_tail,
    tied_ranks,
    wilcoxon_signed_rank,
)

from helpers import (
    average_ranks,
    blob_dataset,
    wilcoxon_exact_p,
    wilcoxon_oracle,
    write_dataset_csv,
)


def test_perfect_prediction():
    s = score([0, 1, 0, 1], [0, 1, 0, 1], minority=1)
    assert (s.recall, s.accuracy, s.f1) == (1.0, 1.0, 1.0)


def test_all_majority_prediction():
    truth = np.r_[np.ones(10), np.zeros(90)]
    pred = np.zeros(100)
    s = score(truth, pred, minority=1)
    assert s.recall == 0.0
    assert s.accuracy == 0.9
    assert s.recall_defined  # minority present in truth, ratio is a true zero


def test_confusion_fixture_arithmetic():
    # tp=9, fn=1, fp=3, tn=87
    truth = np.r_[np.ones(10), np.zeros(90)]
    pred = np.r_[np.ones(9), [0], np.ones(3), np.zeros(87)]
    c = confusion(truth, pred, minority=1)
    assert (c.tp, c.fn, c.fp, c.tn) == (9, 1, 3, 87)
    s = score(truth, pred, minority=1)
    assert s.recall == pytest.approx(0.9)
    assert s.accuracy == pytest.approx(0.96)
    assert s.f1 == pytest.approx(18 / 22)


def test_zero_denominators_flagged():
    s = score([0, 0], [0, 0], minority=1)
    assert s.recall == 0.0 and not s.recall_defined
    assert s.f1 == 0.0 and not s.f1_defined
    assert s.accuracy == 1.0


def test_score_errors():
    with pytest.raises(ValueError):
        score([0, 1], [0], minority=1)
    with pytest.raises(ValueError):
        score([], [], minority=1)


def test_wilcoxon_identical_samples_inconclusive():
    a = np.arange(20.0)
    res = wilcoxon_signed_rank(a, a)
    assert res.n_effective == 0
    assert not res.conclusive
    assert not res.significant
    assert res.p_value == 1.0


def test_wilcoxon_n5_all_positive_exact():
    a = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    b = a - np.array([0.5, 0.4, 0.3, 0.2, 0.1])
    res = wilcoxon_signed_rank(a, b)
    assert res.statistic == 0.0
    assert res.p_value == 2 / 32  # exactly 0.0625
    assert not res.significant  # 0.0625 >= 0.05
    assert res.conclusive


def test_wilcoxon_textbook_ten_pairs_matches_oracle():
    a = np.array([125.0, 115, 130, 140, 140, 115, 140, 125, 140, 135])
    b = np.array([110.0, 122, 125, 120, 140, 124, 123, 137, 135, 145])
    res = wilcoxon_signed_rank(a, b)
    w, p = wilcoxon_oracle(a, b)
    assert res.statistic == w
    assert res.p_value == pytest.approx(p, abs=1e-12)


def test_wilcoxon_fewer_than_five_pairs_inconclusive():
    a = np.array([1.0, 2.0, 3.0, 4.0])
    b = np.array([0.0, 1.0, 2.0, 3.0])
    res = wilcoxon_signed_rank(a, b)
    assert res.n_effective == 4
    assert not res.conclusive and not res.significant


def test_wilcoxon_matches_oracle_with_ties():
    rng = np.random.default_rng(12)
    for n in range(5, 13):
        for _ in range(4):
            a = rng.integers(-3, 4, size=n).astype(float)
            b = np.zeros(n)
            if np.all(a == 0) or np.count_nonzero(a) < 5:
                continue
            res = wilcoxon_signed_rank(a, b)
            w, p = wilcoxon_oracle(a, b)
            assert res.statistic == w
            assert res.p_value == pytest.approx(p, abs=1e-12)


def test_wilcoxon_symmetry():
    rng = np.random.default_rng(13)
    a = rng.normal(size=12)
    b = rng.normal(size=12)
    r1 = wilcoxon_signed_rank(a, b)
    r2 = wilcoxon_signed_rank(b, a)
    assert r1.statistic == r2.statistic
    assert r1.p_value == r2.p_value


@given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=6, max_size=15))
def test_wilcoxon_shift_monotonicity(values):
    a = np.asarray(values)
    b = np.zeros_like(a)
    c = float(np.abs(a - b).max()) + 1.0
    res = wilcoxon_signed_rank(a + c, b)
    assert res.statistic == 0.0  # all signs positive gives the minimal W


def test_null_distribution_sums_to_one():
    rng = np.random.default_rng(14)
    for n in range(2, 11):
        d = rng.integers(1, 4, size=n).astype(float)
        ranks = average_ranks(d)
        # every sign assignment puts at most T in the positive sum
        assert signed_rank_tail(ranks, ranks.sum()) == 1.0


def test_wilcoxon_exact_at_25_and_26_pairs():
    rng = np.random.default_rng(16)
    for n in (25, 26):
        a = rng.normal(0.3, 1.0, size=n)
        res = wilcoxon_signed_rank(a, np.zeros(n))
        # the p-value is a dyadic rational, the exact one
        assert res.conclusive
        assert (res.p_value * 2**n) == round(res.p_value * 2**n)
        assert res.p_value == float(wilcoxon_exact_p(a, np.zeros(n)))


def test_wilcoxon_exact_at_30_pairs():
    rng = np.random.default_rng(15)
    a = rng.normal(0.8, 1.0, size=30)
    b = np.zeros(30)
    res = wilcoxon_signed_rank(a, b)
    assert res.conclusive
    assert (res.p_value * 2**30) == round(res.p_value * 2**30)
    assert res.p_value == float(wilcoxon_exact_p(a, b))
    # 30 pairs of one sign: W = 0 and p = 2 / 2^30
    assert wilcoxon_signed_rank(np.abs(a) + 1.0, b).p_value == 2.0**-29


def _assert_p_matches_exact_reference(values, decimals):
    a = np.round(np.asarray(values, dtype=np.float64), decimals)
    res = wilcoxon_signed_rank(a, np.zeros_like(a))
    if not res.conclusive:
        return
    ref = float(wilcoxon_exact_p(a, np.zeros_like(a)))
    if res.n_effective <= 53:
        assert res.p_value == ref  # every step of the float64 pass is exact
    else:
        assert abs(res.p_value - ref) <= 4 * np.spacing(ref)


@given(st.lists(st.floats(-3, 3, allow_nan=False), min_size=5, max_size=53), st.integers(0, 2))
def test_wilcoxon_p_is_exact_up_to_53_pairs(values, decimals):
    _assert_p_matches_exact_reference(values, decimals)


# magnitudes of at least 0.6 stay nonzero after rounding, so n_eff = n > 53
_NONZERO = st.one_of(st.floats(0.6, 3), st.floats(-3, -0.6))


@settings(max_examples=10)
@given(st.lists(_NONZERO, min_size=54, max_size=200), st.integers(0, 2))
def test_wilcoxon_p_within_4_ulp_up_to_200_pairs(values, decimals):
    _assert_p_matches_exact_reference(values, decimals)


def test_wilcoxon_length_mismatch():
    with pytest.raises(ValueError):
        wilcoxon_signed_rank([1.0, 2.0], [1.0])


@pytest.mark.parametrize("n", [3, 8, 30])  # fewer than 5 pairs, then 8 and 30 pairs
def test_wilcoxon_rejects_nan(n):
    a = np.arange(1.0, n + 1)
    a[1] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        wilcoxon_signed_rank(a, np.zeros(n))


@given(
    st.lists(st.floats(-3, 3, allow_nan=False), max_size=60),
    st.integers(0, 2),
    st.booleans(),
)
def test_tied_ranks_equal_both_oracles_on_tie_heavy_vectors(values, decimals, absolute):
    v = np.round(np.asarray(values, dtype=np.float64), decimals)
    if absolute:
        v = np.abs(v)  # the Wilcoxon test ranks |d|, where +x and -x tie
    ranks = tied_ranks(v)
    for ref in (average_ranks(v), rankdata(v)):
        assert ranks.dtype == ref.dtype == np.float64
        np.testing.assert_array_equal(ranks.view(np.uint64), ref.view(np.uint64))


def test_import_and_load_leave_scipy_unloaded(tmp_path):
    X, y = blob_dataset(np.random.default_rng(17), n_maj=30, n_min=10, m=3)
    csv = write_dataset_csv(tmp_path / "toy.csv", X, y)
    script = (
        "import sys, numpy as np, opfsample, opfsample.cli\n"
        "def scipy_loaded():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        f"opfsample.load_csv({str(csv)!r})\n"
        "print(scipy_loaded())\n"
        "rng = np.random.default_rng(18)\n"
        "for n in (20, 30):\n"
        "    res = opfsample.wilcoxon_signed_rank(rng.normal(0.5, 1, n), np.zeros(n))\n"
        "    print(res.n_effective, scipy_loaded())\n"
    )
    proc = _run_python(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "20 []", "30 []"]


def test_compare_runs_with_scipy_blocked(tmp_path):
    # 30 trials on a 10-feature blob set leave 26 nonzero pairs between none and o2pf
    X, y = blob_dataset(np.random.default_rng(19), n_maj=400, n_min=50, m=10, sep=1.0)
    csv = write_dataset_csv(tmp_path / "toy.csv", X, y)
    out = tmp_path / "out"
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None  # any scipy import now raises ImportError\n"
        "from opfsample import cli\n"
        f"sys.exit(cli.main(['compare', '--data', {str(csv)!r}, '--method', 'none,o2pf',\n"
        f"                   '--grid', '3', '--trials', '30', '--out-dir', {str(out)!r}]))\n"
    )
    proc = _run_python(script)
    assert proc.returncode == 0, proc.stderr
    methods = json.loads((out / "comparison.json").read_text())["methods"]
    assert max(m["n_effective"] for m in methods) > 25


def _run_python(script):
    src = Path(opfsample.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
