"""verify.py keeps one sweep loop: every runner yields cases into
_sweep, which alone builds, evaluates and tallies matrices.  A new scope
adds a case generator, not another loop.  The sweeps and the affine-shift
trials draw their matrices through hermitian.draw_rows alone."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hermrange"
VERIFY = SRC / "verify.py"


def _calls_to(tree, name):
    """Names of the top-level functions holding each call to name."""
    for top in tree.body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == name):
                yield getattr(top, "name", None)


def test_evaluate_is_called_once_inside_the_sweep_driver():
    tree = ast.parse(VERIFY.read_text(encoding="utf-8"), filename=str(VERIFY))
    assert list(_calls_to(tree, "evaluate")) == ["_sweep"]


@pytest.mark.parametrize("module", ["verify.py", "ranges.py"])
def test_matrices_are_drawn_without_randrange(module):
    path = SRC / module
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    calls = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", getattr(node.func, "id", None))
             == "randrange"]
    assert calls == []
