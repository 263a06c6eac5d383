"""The fast demos run to completion against the current API.

Demo 03 writes its plot and dataset under demos/output (ignored by git).
Demos 05-07 train models for up to a minute, so they are run by hand.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo",
    [
        "01_pose_composition.py",
        "02_reverse_mode_engine.py",
        "03_synthetic_trajectories.py",
        "04_training_objective.py",
    ],
)
def test_demo_exits_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
