"""The package stays stdlib-only: every import in src/hermrange is either
package-relative or names a standard-library module.  Its sources and
tests also keep to the grammar of Python 3.10, the oldest it supports."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hermrange"
MODULES = sorted(SRC.glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def _absolute_imports(path):
    """(line, top-level module) of every absolute import in one file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_the_package_has_modules():
    assert {p.name for p in MODULES} >= {"__init__.py", "ranges.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_imports_are_relative_or_stdlib(path):
    outside = [(line, name) for line, name in _absolute_imports(path)
               if name not in sys.stdlib_module_names]
    assert outside == [], f"{path.name} imports outside the stdlib: {outside}"
    assert all(name != "perfbench" for _, name in _absolute_imports(path))


def test_sources_and_tests_parse_as_python_3_10():
    # an interpreter runs only its own grammar, so this pins the 3.10 one
    # wherever the suite runs
    for path in MODULES + TESTS:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=(3, 10))
