import pytest

from hermrange import fields
from hermrange.fields import build_tower

# q -> (p, m); every tower the suite touches, built once per session
TOWER_PARAMS = {
    2: (2, 1),
    3: (3, 1),
    4: (2, 2),
    5: (5, 1),
    7: (7, 1),
    8: (2, 3),
    9: (3, 2),
}


@pytest.fixture(scope="session")
def towers():
    return {q: build_tower(p, m) for q, (p, m) in TOWER_PARAMS.items()}


@pytest.fixture(scope="session")
def f2(towers):
    return towers[2]


@pytest.fixture(scope="session")
def f3(towers):
    return towers[3]


@pytest.fixture(scope="session")
def f4(towers):
    return towers[4]


@pytest.fixture(scope="session")
def f5(towers):
    return towers[5]


@pytest.fixture(scope="session")
def f7(towers):
    return towers[7]


@pytest.fixture(scope="session")
def f9(towers):
    return towers[9]


@pytest.fixture
def formula_tower(monkeypatch):
    """Builder of towers on the formula tier whatever their size, so a
    small field's formulas can be checked against its own tables."""
    def build(p, m=1):
        with monkeypatch.context() as mp:
            mp.setattr(fields, "_Q2_PAIRWISE_LIMIT", 0)
            return build_tower(p, m)
    return build
