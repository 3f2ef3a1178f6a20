"""Range engines: frozen small cases, oracle agreement, and invariants.

Expected value tuples were computed once with the naive filter oracle
(range_naive) and frozen here; the agreement tests keep both paths
honest on fresh random inputs.
"""

import dataclasses
import random
import re

import pytest

from hermrange import ranges
from hermrange.classify import predict_subfield
from hermrange.fields import build_tower
from hermrange.hermitian import (DEFAULT_CAPACITY, FULL_FIELD, SUBFIELD,
                                 CapacityError, HermMatrix, block_diag,
                                 cone_encs, inner_encs)
from hermrange.ranges import (EXHAUSTIVE, KIND_NUM0_PRIME,
                              KIND_NUM0_PRIME_SUBFIELD, KIND_NUM_K,
                              KIND_NUM_K_SUBFIELD, RANGE_KINDS, SAMPLED,
                              _gram, _values, fiber_count, fiber_table,
                              gram_classes, num0_prime, num0_prime_subfield,
                              num_k, num_k_subfield, range_of,
                              resolve_affine_shift, scaling_law_check)

from conftest import TOWER_PARAMS
from oracles import apply, dagger, pairing, range_naive


def _m(ctx, rows):
    return HermMatrix.from_encs(ctx, tuple(tuple(r) for r in rows))


def _rand(ctx, rng, n, limit=None):
    limit = ctx.q2 if limit is None else limit
    return _m(ctx, [[rng.randrange(limit) for _ in range(n)]
                    for _ in range(n)])


def test_frozen_null_ranges(f2, f5):
    assert num0_prime(_m(f2, [[0, 1], [0, 0]])).values == (1, 2, 3)
    assert num0_prime(_m(f2, [[0, 0], [0, 1]])).values == (1,)
    assert num_k(_m(f2, [[0, 0], [0, 1]]), 0).values == (0, 1)
    assert num_k(_m(f2, [[0, 0], [0, 1]]), 1).values == (0, 1)
    assert num0_prime_subfield(_m(f2, [[0, 1], [0, 0]])).values == (1,)
    assert num0_prime_subfield(_m(f5, [[0, 0], [0, 1]])).values == (1, 4)
    assert num_k_subfield(_m(f5, [[0, 0], [0, 1]]), 0).values \
        == (0, 1, 4)


def test_identity_null_range_is_zero(f3, f4):
    for ctx in (f3, f4):
        for n in (2, 3):
            ident = HermMatrix.identity(ctx, n)
            assert num0_prime(ident).values == (0,)


def test_subfield_null_range_empty_when_squares_cannot_cancel(f3):
    # q = 3: x^2 + y^2 = 0 has no nonzero solution, so there is no
    # nonzero subfield null vector at all for n = 2
    rng = random.Random(11)
    for _ in range(10):
        m = _rand(f3, rng, 2, 3)
        assert num0_prime_subfield(m).values == ()


def test_engine_agrees_with_naive_oracle(towers):
    rng = random.Random(47)
    for q in (2, 3, 4, 5):
        ctx = towers[q]
        for _ in range(6):
            m = _rand(ctx, rng, 2)
            for k in range(ctx.q):
                assert num_k(m, k) == range_naive(m, KIND_NUM_K, k)
            assert num0_prime(m) == range_naive(m, KIND_NUM0_PRIME, 0)
            ms = _rand(ctx, rng, 2, ctx.q)
            assert num_k_subfield(ms, 1) \
                == range_naive(ms, KIND_NUM_K_SUBFIELD, 1)
            assert num0_prime_subfield(ms) \
                == range_naive(ms, KIND_NUM0_PRIME_SUBFIELD, 0)


def test_level_zero_range_is_null_range_plus_zero(f3, f4):
    rng = random.Random(53)
    for ctx in (f3, f4):
        for _ in range(8):
            m = _rand(ctx, rng, 2)
            at_zero = set(num_k(m, 0).values)
            assert at_zero == set(num0_prime(m).values) | {0}


def test_null_range_nonempty_for_full_coordinates(f2, f3):
    # level zero always has nonzero vectors once n >= 2
    rng = random.Random(59)
    for ctx in (f2, f3):
        for n in (2, 3):
            m = _rand(ctx, rng, n)
            assert num0_prime(m).cardinality >= 1


def test_nonzero_levels_scale_from_level_one(f2, f3):
    rng = random.Random(61)
    for ctx in (f2, f3):
        for _ in range(10):
            assert scaling_law_check(_rand(ctx, rng, 2))


def test_dagger_preserves_null_range_size(f2):
    rng = random.Random(67)
    for _ in range(15):
        m = _rand(f2, rng, 2)
        assert num0_prime(m).cardinality == num0_prime(dagger(m)).cardinality


def test_fiber_table_partitions_the_cone(f3, f5):
    from hermrange.hermitian import SUBFIELD, cone_encs
    for ctx, n in ((f3, 3), (f5, 2)):
        m = _m(ctx, [[(i + j) % ctx.q for j in range(n)] for i in range(n)])
        table = fiber_table(m)
        assert len(table) == ctx.q
        assert sum(fc.count for fc in table) \
            == len(cone_encs(ctx, n, 0, SUBFIELD))
        for fc in table:
            assert fiber_count(m, fc.value) == fc


def test_scalar_fiber_counts(f2, f3, f5):
    # zero vector included, so these count all subfield null vectors
    for ctx, n, expect in ((f2, 2, 2), (f3, 2, 1), (f5, 2, 9), (f2, 3, 4)):
        scalar = HermMatrix.scalar(ctx, n, 1)
        assert fiber_count(scalar, 0).count == expect


def test_fiber_counting_rejects_bad_inputs(f3):
    with pytest.raises(ValueError):
        fiber_count(_m(f3, [[3, 0], [0, 0]]), 0)
    with pytest.raises(ValueError):
        fiber_count(_m(f3, [[1, 0], [0, 1]]), 4)
    with pytest.raises(ValueError):
        fiber_table(_m(f3, [[3, 0], [0, 0]]))


def test_sampling_modes(f3):
    m = _rand(f3, random.Random(71), 4)
    with pytest.raises(CapacityError):
        num_k(m, 1, capacity=1000)
    with pytest.raises(ValueError):
        num_k(m, 1, capacity=1000, sample_budget=50)
    full = num_k(m, 1)
    assert full.mode == EXHAUSTIVE
    part = num_k(m, 1, capacity=1000, sample_budget=200,
                 rng=random.Random(3))
    again = num_k(m, 1, capacity=1000, sample_budget=200,
                  rng=random.Random(3))
    assert part.mode == SAMPLED
    assert part == again
    assert set(part.values) <= set(full.values)
    with pytest.raises(ValueError):
        part.require_exhaustive()
    # 2.5 once drew three vectors and reported a witness count of 2.5
    for budget in (0, -5, 2.5, True):
        with pytest.raises(ValueError, match="integer of at least 1"):
            num_k(m, 1, capacity=1000, sample_budget=budget,
                  rng=random.Random(3))


def test_sample_budget_is_bounded_before_the_first_draw(f3):
    # the bound is the larger of the capacity and the default capacity
    m = _m(f3, [[1, 0], [0, 1]])
    rng = random.Random(0)
    state = rng.getstate()
    for capacity in (0, DEFAULT_CAPACITY):
        with pytest.raises(CapacityError,
                           match=f"sample budget is {DEFAULT_CAPACITY + 1}, "
                                 f"the bound is {DEFAULT_CAPACITY}"):
            num_k(m, 1, capacity=capacity, sample_budget=DEFAULT_CAPACITY + 1,
                  rng=rng)
    assert rng.getstate() == state
    assert num_k(m, 1, capacity=DEFAULT_CAPACITY + 1,
                 sample_budget=DEFAULT_CAPACITY + 1, rng=rng).mode == EXHAUSTIVE


def test_sampled_range_over_an_empty_level_set_raises(f3):
    # x^2 = 2 has no root in F_3, and x^2 + y^2 = 0 only the zero one:
    # sampling must refuse instead of redrawing prefixes forever
    with pytest.raises(ValueError):
        num_k_subfield(_m(f3, [[1]]), 2, capacity=1,
                       sample_budget=3, rng=random.Random(0))
    with pytest.raises(ValueError):
        num0_prime_subfield(_m(f3, [[1, 0], [0, 1]]), capacity=1,
                            sample_budget=3, rng=random.Random(0))


def test_range_set_shape(f2):
    rs = num0_prime(_m(f2, [[0, 1], [0, 0]]))
    assert rs.cardinality == 3
    assert 2 in rs.values and 0 not in rs.values
    assert rs.to_json_dict() == {
        "kind": "num0_prime", "k": 0, "mode": "exhaustive",
        "witness_count": 9, "cardinality": 3, "values": [1, 2, 3]}
    rows = rs.csv_rows()
    assert rows[0] == ("num0_prime", 0, 1, "1")
    assert len(rows) == 3
    # provenance fields do not affect equality
    assert dataclasses.replace(rs, witness_count=999) == rs


def test_validation_errors(f3, f4):
    with pytest.raises(ValueError):
        num0_prime(_m(f4, [[1]]))
    with pytest.raises(ValueError):
        num_k_subfield(_m(f3, [[3, 0], [0, 1]]), 1)
    with pytest.raises(ValueError):
        range_naive(_m(f3, [[0, 0], [0, 1]]), KIND_NUM0_PRIME, 1)


@pytest.mark.parametrize("kind", list(RANGE_KINDS))
def test_range_of_matches_the_entry_point_and_the_oracle(towers, kind):
    mode, null = RANGE_KINDS[kind]
    entry = getattr(ranges, kind)
    rng = random.Random(89)
    for q in (2, 3):
        ctx = towers[q]
        for _ in range(4):
            m = _rand(ctx, rng, 2, ctx.q if mode == SUBFIELD else ctx.q2)
            for k in (0,) if null else range(ctx.q):
                got = range_of(m, kind, k)
                assert got.kind == kind and got.k_enc == k
                assert got == (entry(m) if null else entry(m, k))
                assert got == range_naive(m, kind, k)


def test_range_of_refuses_what_the_table_does_not_allow(f3):
    m = _m(f3, [[0, 1], [2, 0]])
    for call in (range_of, range_naive):
        with pytest.raises(ValueError, match="unknown range kind 'nope'"):
            call(m, "nope", 0)
        for kind, (_, null) in RANGE_KINDS.items():
            if null:
                with pytest.raises(ValueError, match="level zero only"):
                    call(m, kind, 2)


_LEVEL_CALLS = {
    "num_k": num_k,
    "num_k_subfield": num_k_subfield,
    "range_of": lambda m, k: range_of(m, KIND_NUM_K, k),
    "range_of-null": lambda m, k: range_of(m, KIND_NUM0_PRIME, k),
    "range_naive": lambda m, k: range_naive(m, KIND_NUM_K_SUBFIELD, k),
    "range_naive-null": lambda m, k: range_naive(m, KIND_NUM0_PRIME_SUBFIELD,
                                                 k),
    "predict_subfield": lambda m, k: predict_subfield(m, (k,)),
    "fiber_count": fiber_count,
    "resolve_affine_shift": lambda m, k: resolve_affine_shift(
        m.ctx, k=k, trials=1, rng=random.Random(0)),
}


@pytest.mark.parametrize("call", list(_LEVEL_CALLS))
def test_one_level_check_refuses_what_is_not_a_code_of_f_q(f3, call):
    # True is an int but not a code, and 4 is a code of F_9 outside F_3
    m = _m(f3, [[1, 2], [0, 1]])
    for k in (True, -1, 3, 4):
        message = f"level code must lie in F_q = [0, 3), got {k!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _LEVEL_CALLS[call](m, k)
    if call.endswith("-null"):
        with pytest.raises(ValueError, match="level zero only, got level 2"):
            _LEVEL_CALLS[call](m, 2)


def test_range_of_reaches_entry_points_replaced_on_the_module(
        monkeypatch, f2):
    # a wrapper set on the module (as a call recorder does) is the one
    # range_of calls, for every kind
    calls = []
    for kind in RANGE_KINDS:
        def wrapped(*args, _fn=getattr(ranges, kind), _kind=kind, **kw):
            calls.append(_kind)
            return _fn(*args, **kw)
        monkeypatch.setattr(ranges, kind, wrapped)
    m = _m(f2, [[0, 1], [1, 0]])
    for kind in RANGE_KINDS:
        range_of(m, kind, 0)
    assert calls == list(RANGE_KINDS)


def test_block_sum_value_sets_union_at_matching_levels(f2):
    # <(u, v), (A + B)(u, v)> splits across the blocks, so every level
    # one value of A appears at level one of the sum via v = 0
    rng = random.Random(73)
    a = _rand(f2, rng, 1)
    b = _rand(f2, rng, 1)
    s = block_diag(a, b)
    lvl1 = set(num_k(s, 1).values)
    assert set(num_k(a, 1).values) <= lvl1
    assert set(num_k(b, 1).values) <= lvl1


def test_affine_shift_resolution(f3):
    assert resolve_affine_shift(f3, k=2, trials=20,
                                rng=random.Random(0)) == "ck"
    assert resolve_affine_shift(f3, k=1, trials=5,
                                rng=random.Random(0)) == "tie"
    with pytest.raises(ValueError):
        resolve_affine_shift(f3, k=2)


@pytest.mark.parametrize("trials", [0, -5, 2.0, True])
def test_affine_shift_refuses_trials_below_one_before_any_draw(f3, trials):
    # with no matrix tried, "tie" would read as "no level separates the
    # two laws"
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match="trials must be a positive integer"):
        resolve_affine_shift(f3, k=2, trials=trials, rng=rng)
    assert rng.getstate() == state


def test_gram_value_matches_the_pairing(towers):
    # the oracles pairing and apply sum one add_enc at a time, so they
    # share no code with _gram/_values, which sum through dot_encs, nor
    # with inner_encs; q = 23 has no pairwise tables, so its rows are
    # computed
    rng = random.Random(79)
    for q in (2, 3, 4, 9, 23):
        ctx = towers[q] if q in towers else build_tower(q)
        for n in (2, 3):
            for limit in (ctx.q2, ctx.q):  # full field, then subfield
                for _ in range(25):
                    m = _rand(ctx, rng, n, limit)
                    us = [tuple(rng.randrange(limit) for _ in range(n))
                          for _ in range(4)]
                    got = _values(m, [_gram(ctx, u) for u in us])
                    assert got == [pairing(ctx, u, apply(m, u)) for u in us]
                    assert got == [inner_encs(ctx, u, apply(m, u)) for u in us]
                    assert _values(m, [_gram(ctx, us[0])]) == got[:1]


def test_null_and_level_zero_ranges_build_one_cone(monkeypatch, towers):
    # the null-range reads the level-0 classes without the zero vector's,
    # and the subfield fiber table reads the same classes
    ranges.gram_classes.cache_clear()
    calls = []
    walk = ranges.cone_encs

    def counting(*args):
        calls.append(args)
        return walk(*args)

    monkeypatch.setattr(ranges, "cone_encs", counting)
    for q, n in ((3, 2), (4, 2), (3, 3)):
        ctx = towers[q]
        m = _m(ctx, [[(i * n + j) % ctx.q for j in range(n)]
                     for i in range(n)])
        for mode, level, null in ((FULL_FIELD, num_k, num0_prime),
                                  (SUBFIELD, num_k_subfield,
                                   num0_prime_subfield)):
            calls.clear()
            whole, nonzero = level(m, 0), null(m)
            if mode == SUBFIELD:
                fiber_table(m)
            assert calls == [(ctx, n, 0, mode, DEFAULT_CAPACITY)]
            assert nonzero.witness_count == whole.witness_count - 1
            assert nonzero == range_naive(m, nonzero.kind, 0)


def test_gram_classes_are_unit_scalar_orbits(towers):
    # u and v share a Gram tuple exactly when v = lambda u with
    # N(lambda) = 1: q + 1 scalars in the full field, +-1 in F_q
    for q in (2, 3, 4, 5):
        ctx = towers[q]
        for mode, orbit in ((FULL_FIELD, ctx.q + 1),
                            (SUBFIELD, 1 if ctx.p == 2 else 2)):
            for n in (1, 2, 3):
                for k in range(ctx.q):
                    classes, size = gram_classes(ctx, n, k, mode)
                    assert size == len(cone_encs(ctx, n, k, mode))
                    grams = [g for g, _ in classes]
                    assert grams == sorted(set(grams))
                    for g, count in classes:
                        assert count == (orbit if any(g) else 1)


def _tier_results(ctx, full_rows, sub_rows):
    out = []
    if full_rows is not None:
        m = _m(ctx, full_rows)
        out += [num_k(m, k) for k in range(ctx.q)]
        out.append(num0_prime(m))
    ms = _m(ctx, sub_rows)
    out += [num_k_subfield(ms, k) for k in range(ctx.q)]
    out.append(num0_prime_subfield(ms))
    out = [rs.to_json_dict() for rs in out]
    out.append([(fc.value, fc.count) for fc in fiber_table(ms)])
    return out


def test_polynomial_tier_matches_the_tables(towers, formula_tower):
    # a formula-tier tower runs the polynomial arithmetic otherwise used
    # only past q^2 = 512, on the same small fields as the tables
    rng = random.Random(83)
    for q, (p, deg) in TOWER_PARAMS.items():
        poly = formula_tower(p, deg)
        assert poly._mul2_t is None and poly.frob_enc == poly._frob_poly
        for n in (2, 3):
            full_rows = None
            if q ** (2 * n) <= 1 << 12:  # full 3x3 cones only for q <= 4
                full_rows = [[rng.randrange(q * q) for _ in range(n)]
                             for _ in range(n)]
            sub_rows = [[rng.randrange(q) for _ in range(n)]
                        for _ in range(n)]
            assert _tier_results(poly, full_rows, sub_rows) \
                == _tier_results(towers[q], full_rows, sub_rows)
