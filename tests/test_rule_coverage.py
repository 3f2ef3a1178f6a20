"""Every rule tag of the README table passes in some verify preset.

The presets are the command line's scopes at q = 2, 3, 4 and 5 with
their default sizes, random-nxn at n = 3 and n = 4.  A tag that no
preset reaches is checked only by the unit tests, so it is listed here
until a scope reaches it.
"""

import re
from collections import Counter
from pathlib import Path

import pytest

from hermrange.verify import (SCOPE_DIRECT_SUMS, SCOPE_EXHAUSTIVE_2X2,
                              SCOPE_RANDOM_NXN, SCOPE_SCALAR_FIBERS,
                              run_scope)

README = Path(__file__).resolve().parent.parent / "README.md"

PRESETS = ((SCOPE_EXHAUSTIVE_2X2, None), (SCOPE_RANDOM_NXN, 3),
           (SCOPE_RANDOM_NXN, 4), (SCOPE_SCALAR_FIBERS, None),
           (SCOPE_DIRECT_SUMS, None))

# predict_unitary_diagonal alone emits these, for three or more
# eigenvalues or n >= 3; the scopes reach it only through
# predict_full_field's 2 by 2 matrices with two simple eigenvalues
UNREACHED = {"prop1a", "prop1b", "prop1c"}

_TAG = r"`[\w.-]+`"


def readme_rule_tags():
    """The tags of the rule table's first column, in table order."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("| tag | hypothesis | claims |") + 2
    tags = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        first = line.split("|")[1].strip()
        # each tag spelled out: `a` or `a` / `b`, never a range of tags
        assert re.fullmatch(rf"{_TAG}( / {_TAG})*", first), line
        tags += re.findall(r"`([^`]+)`", first)
    return tags


def test_the_rule_table_spells_out_29_distinct_tags():
    tags = readme_rule_tags()
    assert len(tags) == len(set(tags)) == 29
    assert UNREACHED <= set(tags)


@pytest.fixture(scope="module")
def tallies(towers):
    """pass, fail and inapplicable counts per citation over all presets."""
    out: dict[str, Counter] = {}
    for q in (2, 3, 4, 5):
        for scope, n in PRESETS:
            report = run_scope(towers[q], scope, n=n, collect="fails")
            for tag, per in report["summary"]["by_citation"].items():
                out.setdefault(tag, Counter()).update(per)
    return out


def test_every_table_tag_passes_in_some_preset(tallies):
    tags = set(readme_rule_tags())
    assert set(tallies) <= tags, "a reached tag is missing from the table"
    assert {t for t, c in tallies.items() if c["fail"]} == set()
    assert {t for t in tags if not tallies.get(t, Counter())["pass"]} \
        == UNREACHED
