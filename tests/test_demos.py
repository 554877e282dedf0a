import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# prepare_uci.py needs the UCI source files, so it is not run here
WALKTHROUGHS = sorted(p.name.removesuffix("_walkthrough.py")
                      for p in (ROOT / "demos").glob("*_walkthrough.py"))


def _run_python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
        timeout=120,
    )


# each walkthrough writes only to its own temporary directory
@pytest.mark.parametrize("name", WALKTHROUGHS)
def test_walkthrough_runs(name, tmp_path):
    script = ROOT / "demos" / f"{name}_walkthrough.py"
    proc = _run_python(["-W", "error::RuntimeWarning", str(script)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_quickstart_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    proc = _run_python(["-W", "error::RuntimeWarning", "-c", block], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("k_max ")
