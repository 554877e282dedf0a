"""Seeded `opfsample compare` benchmark on three UCI-shaped workloads.

Usage, from the repository root:

    python3 bench/run.py --workload diag2 [--seed 1] [--seconds 20] [--trace 0]

One run writes the workload's CSV from ``--seed``, times interpreter set-up in
fresh processes, then calls ``opfsample.cli.main(["compare", ...])`` in this
process, with tracing off, at least twice and then for as long as one more
compare still fits in ``--seconds``.
A final compare runs traced, and the output checks read what it captured.
The last stdout line is a JSON object: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. Reports, spans and a
summary go to ``bench/out/<workload>-s<seed>/``.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads, so no helper thread takes the second core
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_RUNS = 3
MIN_TIMED = 2


def _setup_seconds(csv_path: Path) -> float:
    """Process start until opfsample is imported and the CSV is loaded once."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(csv_path)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or line.strip() != "loaded":
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return elapsed


def _compare(cli, csv_path: Path, trials: int, out_dir: Path) -> float:
    argv = ["compare", "--data", str(csv_path), "--trials", str(trials), "--out-dir", str(out_dir)]
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"compare exited with code {code}")
    return elapsed


def _k_star(sweeps: list, traced_dir: Path) -> dict:
    """Per o2pf trial: the grid winner, the k it selects and that forest's cluster count."""
    by_trial = {tid: (cuts, clusters) for tid, cuts, clusters in sweeps}
    report = json.loads((traced_dir / "o2pf_report.json").read_text())
    out = {}
    for trial in report["trials"]:
        tid = f"o2pf/{trial['trial']}"
        cuts, clusters = by_trial[tid]
        k = min(range(trial["chosen"]), key=lambda i: (cuts[i], i)) + 1
        out[tid] = {"chosen": trial["chosen"], "k_star": k, "clusters": clusters[k - 1]}
    return out


def _blas(np) -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas['name']} {blas['version']}, {os.environ['OPENBLAS_NUM_THREADS']} thread"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "opfsample" / "__init__.py").is_file():
        print(f"error: no opfsample source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import scipy

    import checks
    import layers
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    out = HERE / "out" / f"{w.name}-s{args.seed}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    csv_path = out / f"{w.name}.csv"
    workloads.write_workload(w, args.seed, csv_path)

    import opfsample
    from opfsample import cli, harness

    if Path(opfsample.__file__).resolve().parent != SRC / "opfsample":
        print(f"error: imported opfsample from {opfsample.__file__}, not {SRC}", file=sys.stderr)
        return 2
    problems = workloads.check_loaded(w, opfsample.load_csv(csv_path))
    if problems:
        print("error: " + "; ".join(problems), file=sys.stderr)
        return 1
    setup = [_setup_seconds(csv_path) for _ in range(SETUP_RUNS)]

    # timed compares, tracing off; only the five run_experiment calls are timed
    method_s = {m: [] for m in harness.METHODS}
    run_experiment = harness.run_experiment

    def timed_experiment(cfg, dataset=None):
        start = time.perf_counter()
        report = run_experiment(cfg, dataset)
        method_s[cfg.method].append(time.perf_counter() - start)
        return report

    compare_s, timed_dirs = [], []
    harness.run_experiment = timed_experiment
    try:
        start = time.perf_counter()
        while (len(compare_s) < MIN_TIMED
               or time.perf_counter() - start + compare_s[-1] <= args.seconds):
            timed_dirs.append(out / f"timed{len(timed_dirs)}")
            compare_s.append(_compare(cli, csv_path, w.trials, timed_dirs[-1]))
    finally:
        harness.run_experiment = run_experiment
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    tracer = Tracer()
    layers.instrument(tracer)
    traced_dir = out / "traced"
    try:
        traced_s = _compare(cli, csv_path, w.trials, traced_dir)
    finally:
        tracer.restore()
    tracer.write(out / "spans.jsonl")

    keep = tracer.captures
    split_counts = {tid: counts for tid, counts in keep["split"]}
    problems, check_s = [], {}
    for name, run_check in (
        ("reports", lambda: checks.reports(timed_dirs, traced_dir, harness.METHODS)),
        ("balance", lambda: checks.balance(traced_dir, harness.METHODS, split_counts)),
        ("classifier", lambda: checks.classifier(keep["fit"], keep["predict"])),
        ("clustering", lambda: checks.clustering(keep["ift"])),
        ("samplers", lambda: checks.samplers(keep["sampler"], keep["allocate"])),
        ("wilcoxon", lambda: checks.wilcoxon(traced_dir)),
    ):
        start = time.perf_counter()
        problems += run_check()
        check_s[name] = time.perf_counter() - start
    for tid, problem in problems:
        print(f"check failed [{tid or 'run'}]: {problem}", file=sys.stderr)
    failed_trials = {tid for tid, _ in problems if tid is not None}
    rounds = len(compare_s) + 1
    median = statistics.median

    end_to_end = {
        "setup_s": (median(setup), "s"),
        "compare_s": (median(compare_s), "s"),
        **{f"method_s.{m}": (median(method_s[m]), "s") for m in harness.METHODS if m != "none"},
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    per_layer = {name: (value, layers.unit(name)) for name, value in layers.per_layer(tracer).items()}
    per_layer["trace.overhead_s"] = (traced_s - median(compare_s), "s")

    summary = {
        "workload": w.name, "seed": args.seed, "trials": w.trials,
        "setup_s": setup, "compare_s": compare_s, "method_s": method_s, "traced_s": traced_s,
        "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
        "per_layer": {k: v for k, (v, _) in per_layer.items()},
        "o2pf_k_star": _k_star(keep["sweep"], traced_dir),
        "check_s": check_s,
        "checked": {"fits": min(checks.FIT_SAMPLES, len(keep["fit"])), "ift": len(keep["ift"]),
                    "sampler_calls": min(checks.SAMPLER_SAMPLES, len(keep["sampler"])),
                    "allocations": len(keep["allocate"])},
        "problems": [[tid, p] for tid, p in problems],
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__, "blas": _blas(np)},
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")

    shown = per_layer if args.trace else end_to_end
    for name, (value, unit) in shown.items():
        print(f"{w.name:<11} {name:<30} {value:>14.6f} {unit}")
    print(json.dumps({
        "correct": not any(tid is None for tid, _ in problems),
        "attempted": rounds * len(harness.METHODS) * w.trials,
        "failed": rounds * len(failed_trials),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
