"""Every demo script runs to completion against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SLOW = {"04_generalized_weights.py"}  # the F_8, m=3 profile sweep


@pytest.mark.parametrize(
    "script",
    [
        pytest.param(p.name, marks=pytest.mark.slow) if p.name in SLOW else p.name
        for p in sorted((ROOT / "demos").glob("*.py"))
    ],
)
def test_demo_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
