"""verify.py keeps one sweep loop: every runner yields cases into
_sweep, which alone builds, evaluates and tallies matrices.  A new scope
adds a case generator, not another loop.  The sweeps and the affine-shift
trials draw their matrices through hermitian.draw_matrices alone, so
neither verify.py nor ranges.py calls randrange or getrandbits.

classify.py keeps one path per rule and per key: each rule tag of the
README table is written in one top-level function, and the null-class
key and its scale orbit are one formula each, with no branch.  The
affine orbit of a subfield class is written in one classify.py function,
which verify.py reaches only through _ORBITS, the one table that pairs
each keyed predictor with its orbit and that _sweep alone reads; _sweep
takes no orbit, and verify.py reads no key's shape, so a new keyed
predictor adds a pairing, not a branch.  One guard function of verify.py
reads SCALE_COVARIANT_CLAIMS, and both keyed predictors call it, so a
new orbit adds a predicate, not a guard loop.  One function of verify.py
builds every CapacityError it raises, so every sweep refusal writes its
numbers alike."""

import ast
from pathlib import Path

import pytest

from test_rule_coverage import readme_rule_tags

SRC = Path(__file__).resolve().parent.parent / "src" / "hermrange"
VERIFY = SRC / "verify.py"
CLASSIFY = SRC / "classify.py"


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _home(top):
    """The name of a top-level statement: its function's, or its first
    assignment target's."""
    if isinstance(top, ast.Assign):
        return getattr(top.targets[0], "id", None)
    return getattr(top, "name", None)


def _calls_to(tree, name):
    """Names of the top-level functions holding each call to name."""
    for top in tree.body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == name):
                yield getattr(top, "name", None)


def _top(tree, name):
    [top] = [top for top in tree.body if _home(top) == name]
    return top


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
    """The (top-level, innermost) names around each load of name: a
    top-level statement's _home, and the innermost function's name, or
    that home outside any function."""
    found = []

    def visit(node, outer, inner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = node.name
        if (isinstance(node, ast.Name) and node.id == name
                and isinstance(node.ctx, ast.Load)):
            found.append((outer, inner))
        for child in ast.iter_child_nodes(node):
            visit(child, outer, inner)
    for top in tree.body:
        visit(top, _home(top), _home(top))
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
    # verify.py names it once, in the table pairing each keyed predictor
    # with its orbit, and only _sweep reads that table
    assert _references(verify, name) == [("_ORBITS", "_ORBITS")]
    table = _top(verify, "_ORBITS").value
    assert {(k.id, v.id) for k, v in zip(table.keys, table.values)} == {
        ("_null_class_preds", "scaled_null_classes"),
        ("_subfield_class_preds", name)}
    assert _references(verify, "_ORBITS") == [("_sweep", "_sweep")]


def test_the_sweep_takes_no_orbit_and_no_key_shape_is_read():
    verify = _parse(VERIFY)
    args = _top(verify, "_sweep").args
    assert [a.arg for a in args.args + args.kwonlyargs] \
        == ["ctx", "scope", "cases", "collect", "capacity", "config"]
    # no branch reads a length, such as a key's
    tests = [node.test for node in ast.walk(verify)
             if isinstance(node, (ast.If, ast.IfExp, ast.While))]
    tests += [cond for node in ast.walk(verify)
              if isinstance(node, ast.comprehension) for cond in node.ifs]
    assert [node.lineno for test in tests for node in ast.walk(test)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "len"] == []
    imported = {alias.name for node in ast.walk(verify)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(verify)
                 if isinstance(node, ast.ImportFrom)}
    assert "functools" not in imported


def test_one_function_builds_every_capacity_refusal_of_the_sweeps():
    verify = _parse(VERIFY)
    assert list(_calls_to(verify, "CapacityError")) == ["_refusal"]
    refusals = [node for node in ast.walk(verify)
                if isinstance(node, ast.Raise)
                and isinstance(node.exc, ast.Call)
                and getattr(node.exc.func, "id", None) == "_refusal"]
    # the cone bound of _check_capacity and the matrix count of
    # _check_matrices, the exhaustive and the random sweeps' alike
    assert len(refusals) == 2


def test_both_keyed_predictors_share_one_guard():
    verify = _parse(VERIFY)
    guards = {outer for outer, _ in _references(verify,
                                                 "SCALE_COVARIANT_CLAIMS")}
    assert len(guards) == 1 and None not in guards, guards
    [guard] = guards
    assert {"_null_class_preds", "_subfield_class_preds"} \
        <= set(_calls_to(verify, guard))
