import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# prepare_uci.py needs the UCI source files, so it is not run here
WALKTHROUGHS = ("classifier", "clustering", "oversampling", "benchmark")


@pytest.mark.parametrize("name", WALKTHROUGHS)
def test_walkthrough_runs(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}_walkthrough.py")],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
