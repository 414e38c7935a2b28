"""Smoke tests: the experiment scripts run against the package's public API."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_explore_dim4_mixed_pairs_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "scripts/explore_dim4_mixed_pairs.py", "--samples", "2", "--grid-steps", "50"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    results = {}
    for line in proc.stdout.splitlines():
        if " : " in line:
            label, value = line.split(" : ")
            results[label.rstrip()] = float(value)
    assert set(results) == {
        "samples per class",
        "best pure-pure backflow",
        "best subspace-split pair",
        "both-mixed candidate",
    }
    assert results["samples per class"] == 2
    assert all(value >= 0.0 for value in results.values())
