"""The benchmark's tracer still reaches every layer it wraps.

``bench/layers.py`` replaces functions on the ``opfsample`` modules by name.
A function the package binds at import time (a sampler stored in a table, a
default argument) escapes the wrapper, and the benchmark's output checks
then pass on nothing. This runs one small traced compare and asserts that
every sampler call, every allocation, every trial and every O²PF sweep was
seen, and that the bench's k* read of each captured sweep runs.
"""

import contextlib
import io
import sys
from pathlib import Path

import numpy as np

from opfsample import cli

from helpers import blob_dataset, write_dataset_csv

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import checks  # noqa: E402
import layers  # noqa: E402
import run as bench_run  # noqa: E402
from spans import Tracer  # noqa: E402


def test_traced_compare_reaches_every_hook(tmp_path):
    X, y = blob_dataset(np.random.default_rng(86), n_maj=50, n_min=20, m=3, sep=2.5)
    csv_path = write_dataset_csv(tmp_path / "toy.csv", X, y)
    tracer = Tracer()
    layers.instrument(tracer)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([
                "compare", "--data", str(csv_path), "--trials", "1", "--grid", "3,5",
                "--out-dir", str(tmp_path / "out"),
            ])
    finally:
        tracer.restore()
    assert code == 0
    keep = tracer.captures
    assert {kind for _, kind, _, _, _ in keep["sampler"]} == {
        "smote", "borderline_smote", "adasyn",
    }
    assert keep["allocate"]
    assert tracer.counts["harness.trials"] == 5
    assert checks.samplers(keep["sampler"], keep["allocate"]) == []
    assert checks.classifier(keep["fit"], keep["predict"]) == []
    assert checks.clustering(keep["ift"]) == []
    # one sweep per O²PF trial, and the bench indexes each one's cuts up to
    # the chosen grid value, past the sweep's first zero cut
    assert [tid for tid, _, _ in keep["sweep"]] == ["o2pf/0"]
    assert keep["ift"]
    k_star = bench_run._k_star(keep["sweep"], tmp_path / "out")
    assert list(k_star) == ["o2pf/0"]
    assert 1 <= k_star["o2pf/0"]["k_star"] <= k_star["o2pf/0"]["chosen"]
