"""The fast demos run to completion against the current API.

Demo 03 writes its plot and dataset under demos/output (ignored by git).
Demos 05-07 train models for up to a minute, so they are run by hand; here
only their ``RunConfig`` keywords are checked against the dataclass.
"""

import ast
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from curvo import trainer as tr

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


@pytest.mark.parametrize(
    "demo",
    ["05_curriculum_training.py", "06_trajectory_metrics.py", "07_schedule_comparison.py"],
)
def test_slow_demo_run_configs_name_only_fields(demo):
    tree = ast.parse((ROOT / "demos" / demo).read_text())
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "attr", getattr(node.func, "id", None)) == "RunConfig"]
    assert calls
    names = {f.name for f in fields(tr.RunConfig)}
    for call in calls:
        assert {k.arg for k in call.keywords} <= names
