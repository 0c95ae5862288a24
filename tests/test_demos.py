"""The demos/ scripts run end to end, as a user runs them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path):
    """Each demo exits 0 and prints something.  A demo with a capture in
    tests/data prints exactly that: cascade_vs_searching.py's designed
    Monte Carlo (N=10^5, R=500, seed 42) pins the simulation end to end."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(path)], capture_output=True, text=True, env=env, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
    pinned = ROOT / "tests" / "data" / f"{path.stem}.txt"
    if pinned.exists():
        assert done.stdout == pinned.read_text()
