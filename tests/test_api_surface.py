"""The package exports only what a command reaches or the README
documents: every function and class in hermrange.__all__ is either
called while the command line runs its presets, or named as library API
in README "Library"."""

import inspect
import re
import sys
from pathlib import Path

import pytest

import hermrange
from hermrange.cli import main
from hermrange.ranges import RANGE_KINDS

README = Path(__file__).resolve().parent.parent / "README.md"

# (p, m) of q = 2, 3, 4 and 5
FIELDS = ((2, 1), (3, 1), (2, 2), (5, 1))


def _commands(out):
    """Every verify preset at each q, range on each kind (exhaustive and
    sampled) and fibers."""
    for p, m in FIELDS:
        field = ["--p", str(p), "--m", str(m), "--out", out]
        for scope, n in (("exhaustive-2x2", None), ("random-nxn", "3"),
                         ("random-nxn", "4"), ("scalar-fibers", None),
                         ("direct-sums", None)):
            sized = ["--n", n] if n else []
            yield ["verify", *field, "--scope", scope, *sized,
                   "--collect", "fails"]
        for kind in RANGE_KINDS:
            shown = ["range", *field, "--matrix", "1,0,0;1,0,0;0,0,1",
                     "--kind", kind]
            yield shown
            yield shown + ["--capacity", "0", "--sample-budget", "20"]
        yield ["fibers", *field, "--matrix", "1,0;0,1"]


def _codes(obj):
    """Code objects whose call means obj was used: a function's own, or
    those of the functions, class and static methods and properties a
    class defines."""
    obj = inspect.unwrap(obj)
    if inspect.isfunction(obj):
        return {obj.__code__}
    codes = set()
    for attr in vars(obj).values():
        for f in (getattr(attr, "__func__", attr),
                  getattr(attr, "fget", None)):
            if inspect.isfunction(f):
                codes.add(f.__code__)
    return codes


@pytest.fixture(scope="module")
def called(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("api") / "out")
    seen = set()

    def record(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    for argv in _commands(out):
        sys.setprofile(record)
        try:
            rc = main(argv)
        finally:
            sys.setprofile(None)
        assert rc == 0, argv
    return seen


def _library_section():
    text = README.read_text(encoding="utf-8")
    return text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def test_every_export_is_called_by_a_command_or_documented(called):
    library = _library_section()
    orphans = []
    for name in hermrange.__all__:
        obj = getattr(hermrange, name)
        if not (inspect.isfunction(inspect.unwrap(obj))
                or inspect.isclass(obj)):
            continue
        if _codes(obj) & called:
            continue
        if not re.search(rf"\b{re.escape(name)}\b", library):
            orphans.append(name)
    assert orphans == []
