"""verify.py keeps one sweep loop: every runner yields cases into
_sweep, which alone builds, evaluates and tallies matrices.  A new scope
adds a case generator, not another loop.  The sweeps and the affine-shift
trials draw their matrices through hermitian.draw_matrices alone, so
neither verify.py nor ranges.py calls randrange or getrandbits.

classify.py keeps one path per rule and per key: each rule tag of the
README table is written in one top-level function, and the null-class
key and its scale orbit are one formula each, with no branch.  The
affine orbit of a subfield class is written in one classify.py function,
which verify.py reaches only through the orbit it hands to _sweep."""

import ast
from pathlib import Path

import pytest

from test_rule_coverage import readme_rule_tags

SRC = Path(__file__).resolve().parent.parent / "src" / "hermrange"
VERIFY = SRC / "verify.py"
CLASSIFY = SRC / "classify.py"


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _calls_to(tree, name):
    """Names of the top-level functions holding each call to name."""
    for top in tree.body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == name):
                yield getattr(top, "name", None)


def test_evaluate_is_called_once_inside_the_sweep_driver():
    assert list(_calls_to(_parse(VERIFY), "evaluate")) == ["_sweep"]


@pytest.mark.parametrize("module", ["verify.py", "ranges.py"])
def test_matrices_are_drawn_without_randrange(module):
    calls = [node.lineno for node in ast.walk(_parse(SRC / module))
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", getattr(node.func, "id", None))
             in ("randrange", "getrandbits")]
    assert calls == []


def test_every_rule_tag_is_written_in_one_function():
    tags = set(readme_rule_tags())
    homes: dict[str, set] = {}
    for top in _parse(CLASSIFY).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Constant) and node.value in tags:
                homes.setdefault(node.value, set()).add(
                    getattr(top, "name", None))
    assert set(homes) == tags
    assert {tag: names for tag, names in homes.items() if len(names) > 1} \
        == {}


@pytest.mark.parametrize("name", ["null_class", "scaled_null_classes"])
def test_the_null_class_key_has_no_branch(name):
    [fn] = [top for top in _parse(CLASSIFY).body
            if getattr(top, "name", None) == name]
    branches = [type(node).__name__ for node in ast.walk(fn)
                if isinstance(node, (ast.If, ast.IfExp, ast.Match))
                or getattr(node, "ifs", None)]
    assert branches == []


def _references(tree, name):
    """The (top-level, innermost) function names around each load of
    name."""
    found = []

    def visit(node, outer, inner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            outer, inner = outer or node.name, node.name
        if (isinstance(node, ast.Name) and node.id == name
                and isinstance(node.ctx, ast.Load)):
            found.append((outer, inner))
        for child in ast.iter_child_nodes(node):
            visit(child, outer, inner)
    visit(tree, None, None)
    return found


def test_the_subfield_orbit_is_reached_only_through_the_sweep_orbit():
    name = "affine_subfield_classes"
    assert [top.name for top in _parse(CLASSIFY).body
            if isinstance(top, ast.FunctionDef) and top.name == name] \
        == [name]
    for path in SRC.glob("*.py"):
        if path.name != "verify.py":
            assert _references(_parse(path), name) == [], path.name
    verify = _parse(VERIFY)
    assert _references(verify, name) == [("run_exhaustive_2x2", "orbit")]
    [runner] = [top for top in verify.body
                if getattr(top, "name", None) == "run_exhaustive_2x2"]
    sweeps = [node for node in ast.walk(runner)
              if isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "_sweep"]
    # orbit is _sweep's seventh parameter
    assert [[getattr(arg, "id", None) for arg in call.args[6:] + [
        kw.value for kw in call.keywords if kw.arg == "orbit"]]
            for call in sweeps] == [["orbit"]]
