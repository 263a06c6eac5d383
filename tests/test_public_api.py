"""Every public top-level function and class of ``curvo`` has a caller in the program.

A name counts as called when a code ``Name`` or ``Attribute`` node spells it outside
its own definition, anywhere in ``src/`` or ``perfbench/``. The check is one level and
by name; docstrings and comments do not count, and neither do the tests.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

from curvo import geometry as geo
from curvo import svgplot
from curvo import synthdata as sd
from curvo import trainer as tr

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "curvo").glob("*.py"))
PROGRAM = [ast.parse(path.read_text())
           for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))]


def spelled(tree) -> Counter:
    """How often the code nodes of ``tree`` spell each name, as a Name or an Attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


SPELLED = sum(map(spelled, PROGRAM), Counter())


@pytest.mark.parametrize("module", MODULES, ids=[path.stem for path in MODULES])
def test_every_public_name_has_a_caller_outside_the_tests(module):
    uncalled = [node.name for node in ast.parse(module.read_text()).body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")
                and SPELLED[node.name] == spelled(node)[node.name]]  # only its own body
    assert not uncalled, f"{module.name}: {uncalled} have no caller in src/ or perfbench/"


def test_the_pose_object_layer_stays_gone():
    gone = ("Pose", "compose", "inverse", "relative_between", "accumulate", "_IDENTITY",
            "euler_to_pose", "pose_to_euler", "pose_to_vector", "vector_to_pose", "quat_mul")
    assert [name for name in gone if hasattr(geo, name)] == []
    assert not hasattr(geo.Trajectory, "poses")
    assert not hasattr(sd.FeatureModel, "identity")


def test_the_report_wrappers_stay_gone():
    """An ablation or sweep report is its list of rows; predictions come from ``md.predict``."""
    gone = ("AblationRow", "AblationReport", "SweepReport", "predict_relatives",
            "sequence_objective")
    assert [name for name in gone if hasattr(tr, name)] == []


def test_the_svg_series_wrapper_stays_gone():
    """``svgplot.line_plot`` takes (label, xs, ys) tuples and checks them itself."""
    assert not hasattr(svgplot, "Series")
