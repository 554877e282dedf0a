"""Regenerate the reference figures in bench/README.md.

Usage, from the repository root:

    python3 bench/reference.py [--seed 1] [--seconds 20]

Runs every workload once with tracing on, then prints markdown tables built
from each run's ``bench/out/<workload>-s<seed>/summary.json``: the per-layer
table, the end-to-end metrics, k* and the cluster count per o2pf trial, and
the machine facts.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", default="20")
    args = parser.parse_args()

    import workloads

    names = list(workloads.WORKLOADS)
    summaries = {}
    for name in names:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", args.seconds, "--trace", "1"]
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        summaries[name] = json.loads((HERE / "out" / f"{name}-s{args.seed}" / "summary.json").read_text())

    first = summaries[names[0]]
    print(f"Seed {args.seed}, `--seconds {args.seconds}`, nproc {os.cpu_count()}, "
          + ", ".join(f"{k} {v}" for k, v in first["versions"].items()) + ".\n")
    for section in ("end_to_end", "per_layer"):
        print("| metric | " + " | ".join(names) + " |")
        print("|---|" + "---:|" * len(names))
        for metric in first[section]:
            cells = []
            for name in names:
                value = summaries[name][section][metric]
                cells.append(f"{value:.4f}" if isinstance(value, float) else str(value))
            print(f"| `{metric}` | " + " | ".join(cells) + " |")
        print()
    print("| workload | trial | grid winner | k* | clusters |")
    print("|---|---|---:|---:|---:|")
    for name in names:
        for tid, row in summaries[name]["o2pf_k_star"].items():
            print(f"| {name} | {tid} | {row['chosen']} | {row['k_star']} | {row['clusters']} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
