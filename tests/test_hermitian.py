"""Pairing, matrices, and cone enumeration against the naive filter."""

import random
import time

import pytest

from hermrange.fields import build_tower
from hermrange.hermitian import (FULL_FIELD, SUBFIELD, CapacityError,
                                 _BLOCK_CODES, HermMatrix, _level_set_is_empty,
                                 block_diag, cone_encs, cone_upper_bound,
                                 draw_matrices, inner_encs, sample_cone_encs)

import oracles
from oracles import (apply, dagger, is_unitary, matmul, naive_cone_encs,
                     random_unitary_2x2)


def _rand_matrix(ctx, rng, n, limit=None):
    limit = ctx.q2 if limit is None else limit
    return HermMatrix.from_encs(ctx, tuple(
        tuple(rng.randrange(limit) for _ in range(n)) for _ in range(n)))


def test_inner_is_conjugate_symmetric(f4):
    rng = random.Random(5)
    for _ in range(30):
        u = [rng.randrange(16) for _ in range(3)]
        v = [rng.randrange(16) for _ in range(3)]
        assert inner_encs(f4, u, v) == f4.frob_enc(inner_encs(f4, v, u))
        assert inner_encs(f4, u, u) < f4.q


def test_dagger_is_an_involution_and_antihomomorphism(f9):
    rng = random.Random(17)
    for _ in range(20):
        a = _rand_matrix(f9, rng, 2)
        b = _rand_matrix(f9, rng, 2)
        assert dagger(dagger(a)).encs() == a.encs()
        assert dagger(a + b).encs() == (dagger(a) + dagger(b)).encs()
        assert dagger(matmul(a, b)).encs() \
            == matmul(dagger(b), dagger(a)).encs()


def test_matmul_matches_apply(f9):
    rng = random.Random(23)
    a = _rand_matrix(f9, rng, 3)
    b = _rand_matrix(f9, rng, 3)
    u = tuple(rng.randrange(81) for _ in range(3))
    assert apply(matmul(a, b), u) == apply(a, apply(b, u))
    for bad in (u[:2], (0, -1, 0), (0, 81, 0), (0, True, 0)):
        with pytest.raises(ValueError, match="is not 3 codes below 81"):
            apply(a, bad)


def test_matrix_predicates(f3):
    assert HermMatrix.scalar(f3, 3, 2).is_scalar
    assert not HermMatrix.from_encs(f3, ((2, 0), (0, 1))).is_scalar
    assert HermMatrix.from_encs(f3, ((1, 2), (0, 2))).has_subfield_coeffs
    assert not HermMatrix.from_encs(f3, ((1, 3), (0, 2))).has_subfield_coeffs


def test_code_rows_round_trip(f9):
    rng = random.Random(41)
    for n in (1, 2, 3):
        codes = tuple(tuple(rng.randrange(81) for _ in range(n))
                      for _ in range(n))
        by_codes = HermMatrix.from_encs(f9, codes)
        by_lists = HermMatrix.from_encs(f9, [list(r) for r in codes])
        assert by_codes.encs() == by_lists.encs() == codes
        assert HermMatrix.from_encs(f9, by_codes.encs()).encs() == codes
    assert HermMatrix.from_encs(f9, ((1, 2), (3, 4))).encs() \
        != HermMatrix.from_encs(f9, ((1, 2), (3, 5))).encs()


@pytest.mark.parametrize("rows,message", [
    (((0, 9), (0, 0)), r"element code 9 out of range \[0, 9\)"),
    (((0, -1), (0, 0)), r"element code -1 out of range \[0, 9\)"),
    (((0, 1), (0,)), "matrix must be square and nonempty"),
    ((), "matrix must be square and nonempty"),
])
def test_from_encs_rejects_bad_codes_and_shapes(f3, rows, message):
    with pytest.raises(ValueError, match=message):
        HermMatrix.from_encs(f3, rows)


@pytest.mark.parametrize("rows", [((2.9, True), (0, 0)), ((0, 1.0), (1, 0)),
                                  (("2", 0), (0, 0)), ((0, False), (0, 0))])
def test_from_encs_refuses_codes_that_are_not_integers(f3, rows):
    # codes are never truncated or coerced; bool is not a code either
    with pytest.raises(ValueError, match="is not an integer"):
        HermMatrix.from_encs(f3, rows)
    with pytest.raises(ValueError, match="is not an integer"):
        HermMatrix.scalar(f3, 2, next(e for r in rows for e in r
                                      if type(e) is not int))


def test_block_diag_layout(f3):
    a = HermMatrix.from_encs(f3, ((1, 2), (3, 4)))
    b = HermMatrix.from_encs(f3, ((5,),))
    m = block_diag(a, b)
    assert m.encs() == ((1, 2, 0), (3, 4, 0), (0, 0, 5))


def test_unitary_conjugation(f4):
    rng = random.Random(31)
    assert is_unitary(HermMatrix.identity(f4, 2))
    for _ in range(15):
        assert is_unitary(random_unitary_2x2(f4, rng))
    assert not is_unitary(HermMatrix.from_encs(f4, ((1, 1), (0, 1))))
    # seeded generation is reproducible
    assert random_unitary_2x2(f4, random.Random(9)).encs() \
        == random_unitary_2x2(f4, random.Random(9)).encs()


_CONE_FUNCS = {
    "cone_encs": cone_encs,
    "sample_cone_encs": lambda ctx, n, k, mode: sample_cone_encs(
        ctx, n, k, mode, False, 1, random.Random(0)),
}


@pytest.mark.parametrize("func", list(_CONE_FUNCS))
@pytest.mark.parametrize("n,k,mode,message", [
    (0, 0, FULL_FIELD, "dimension must be at least 1, got 0"),
    (2, 0, "nope", "unknown mode 'nope'"),
    (2, 4, FULL_FIELD, r"level code must lie in F_q = \[0, 3\), got 4"),
    (2, -1, SUBFIELD, r"level code must lie in F_q = \[0, 3\), got -1"),
], ids=["n0", "mode-nope", "k4", "k-1"])
def test_cone_functions_reject_bad_arguments(f3, func, n, k, mode, message):
    # refused on the call itself, before any vector is built or drawn
    with pytest.raises(ValueError, match=message):
        _CONE_FUNCS[func](f3, n, k, mode)


def test_known_cone_sizes(f2):
    # over F_4, n=2: the zero cone is {0} plus 3*3 pairs of nonzero
    # coordinates with matching norms; the rest splits evenly by level
    assert len(cone_encs(f2, 2, 0, FULL_FIELD)) == 10
    assert len(cone_encs(f2, 2, 1, FULL_FIELD)) == 6
    # the null cone is the level-0 cone without its first vector, zero
    assert cone_encs(f2, 2, 0, FULL_FIELD)[0] == (0, 0)
    assert len(cone_encs(f2, 2, 0, FULL_FIELD)[1:]) == 9


def test_cone_matches_naive_filter(towers):
    for q in (2, 3, 4, 5):
        ctx = towers[q]
        for n in (1, 2, 3):
            if ctx.q2 ** n > 1 << 14:
                continue
            for k in range(ctx.q):
                fast = cone_encs(ctx, n, k, FULL_FIELD)
                assert fast == tuple(naive_cone_encs(ctx, n, k, FULL_FIELD))
                assert list(fast) == sorted(fast)
                sub = cone_encs(ctx, n, k, SUBFIELD)
                assert sub == tuple(naive_cone_encs(ctx, n, k, SUBFIELD))


@pytest.mark.parametrize("mode,name", [(FULL_FIELD, "norm_preimage_encs"),
                                       (SUBFIELD, "q_sqrt_encs")])
def test_walk_completes_each_residual_once(monkeypatch, mode, name):
    # a walk over q^2 (or q) prefixes per coordinate asks its completion
    # map once per distinct residual, of which F_q holds at most q
    ctx = build_tower(3)
    calls = []
    complete = getattr(ctx, name)

    def counting(a):
        calls.append(a)
        return complete(a)

    monkeypatch.setattr(ctx, name, counting)
    for n in (2, 3):
        for k in range(ctx.q):
            calls.clear()
            walked = cone_encs(ctx, n, k, mode)
            assert walked == tuple(naive_cone_encs(ctx, n, k, mode))
            assert len(calls) == len(set(calls)) <= ctx.q, (n, k)


def test_cone_partition_and_bounds(f3):
    for n in (2, 3):
        sizes = [len(cone_encs(f3, n, k, FULL_FIELD)) for k in range(3)]
        assert sum(sizes) == f3.q2 ** n
        assert sizes[1] == sizes[2]  # nonzero levels are translates
        assert sizes[0] <= cone_upper_bound(f3, n, FULL_FIELD)
        assert len(cone_encs(f3, n, 0, SUBFIELD)) \
            <= cone_upper_bound(f3, n, SUBFIELD)


def test_exclude_zero_only_affects_level_zero(f5):
    # only the sampler excludes zero: it redraws the zero vector, which
    # lies on level 0 alone
    for mode in (FULL_FIELD, SUBFIELD):
        nonzero = set(cone_encs(f5, 2, 0, mode)[1:])
        assert set(sample_cone_encs(f5, 2, 0, mode, True, 400,
                                    random.Random(6))) <= nonzero
        assert (0, 0) in set(sample_cone_encs(f5, 2, 0, mode, False, 400,
                                              random.Random(6)))
        assert tuple(sample_cone_encs(f5, 2, 1, mode, True, 50,
                                      random.Random(6))) \
            == tuple(sample_cone_encs(f5, 2, 1, mode, False, 50,
                                      random.Random(6)))


def test_capacity_refusal(f5):
    with pytest.raises(CapacityError):
        cone_encs(f5, 3, 0, FULL_FIELD, 100)


def test_a_huge_n_cone_is_refused_before_its_bound_is_built():
    # q^(n - 1) at n = 3,000,000 has millions of digits; n - 1 past the
    # capacity's bit length already shows the cone cannot fit
    ctx = build_tower(3, 2)
    start = time.perf_counter()
    with pytest.raises(CapacityError, match=(
            "^cone may hold up to at least 2\\^2999999 vectors, capacity "
            "is 16777216$")):
        cone_encs(ctx, 3000000, 0, SUBFIELD)
    assert time.perf_counter() - start < 0.1


# n = 65 puts 4,225 codes in one matrix, more than a block holds
@pytest.mark.parametrize("limit", [1, 2, 3, 4, 9, 16, 81, 128, 129, 255, 256,
                                   1031 ** 2, 2 ** 20, 2 ** 32, 2 ** 33 + 5])
def test_draw_rows_is_the_stream_of_nested_randrange(limit):
    # the sweeps' matrices, and so every pinned random digest, are those
    # of randrange(limit) in row order: draw_matrices takes the top byte
    # of getrandbits(32 * w)'s words below 256, so a CPython that changes
    # that word order, or stops drawing getrandbits(limit.bit_length())
    # until below limit in randrange, fails here
    for seed in (0, 1, 5, 2 ** 40 + 3):
        ours, theirs = random.Random(seed), random.Random(seed)
        for n in (1, 2, 3, 65):
            block = max(1, _BLOCK_CODES // (n * n))
            for count in (0, 1, block, block + 1):
                got = tuple(draw_matrices(ours, limit, n, count))
                want = tuple(tuple(tuple(theirs.randrange(limit)
                                         for _ in range(n))
                                   for _ in range(n))
                             for _ in range(count))
                assert got == want, (seed, n, count)
                assert ours.random() == theirs.random(), (seed, n, count)


def test_sampling_is_seeded_and_sound(f5):
    truth = set(cone_encs(f5, 2, 1, FULL_FIELD))
    a = tuple(sample_cone_encs(f5, 2, 1, FULL_FIELD, False, 40,
                               random.Random(2)))
    b = tuple(sample_cone_encs(f5, 2, 1, FULL_FIELD, False, 40,
                               random.Random(2)))
    assert a == b
    assert len(a) == 40
    assert set(a) <= truth


def test_full_field_draws_pick_without_listing(monkeypatch):
    # the sampler and random_unitary_2x2 take one norm preimage each
    # through norm_preimage_enc; the q + 1 listing is never built
    ctx = build_tower(1031)

    def listing(a):
        raise AssertionError("norm preimages listed")

    monkeypatch.setattr(ctx, "norm_preimage_encs", listing)
    rng = random.Random(4)
    for k, exclude_zero in ((0, True), (5, False)):
        for u in sample_cone_encs(ctx, 3, k, FULL_FIELD, exclude_zero, 30, rng):
            total = 0
            for x in u:
                total = ctx.add_enc(total, ctx.pow_enc(x, ctx.q + 1))
            assert total == k and any(u), u
    for _ in range(5):
        assert is_unitary(random_unitary_2x2(ctx, rng))


def test_sampler_redraws_prefixes_without_an_admissible_completion(towers):
    # q = 3, subfield, level 2: the prefix 0 leaves the nonsquare 2, which
    # has no completion; q = 5, subfield, level 0 with exclude_zero: the
    # prefix 0 completes only to the excluded zero vector
    for q, k, exclude_zero in ((3, 2, False), (5, 0, True)):
        ctx = towers[q]
        truth = set(naive_cone_encs(ctx, 2, k, SUBFIELD, exclude_zero))
        draws = tuple(sample_cone_encs(ctx, 2, k, SUBFIELD, exclude_zero,
                                       200, random.Random(3)))
        assert len(draws) == 200
        assert set(draws) <= truth
        assert (0, 0) not in draws
        assert draws == tuple(sample_cone_encs(
            ctx, 2, k, SUBFIELD, exclude_zero, 200, random.Random(3)))


def test_level_set_emptiness_matches_naive_filter(towers):
    # q = 3 and 7 have -1 a nonsquare, q = 5 and 9 a square
    for q in (2, 3, 4, 5, 7, 9):
        ctx = towers[q]
        for mode, space in ((FULL_FIELD, ctx.q2), (SUBFIELD, ctx.q)):
            for n in (1, 2, 3):
                if space ** n > 1 << 13:
                    continue
                for k in range(ctx.q):
                    for ez in ((False, True) if k == 0 else (False,)):
                        empty = next(naive_cone_encs(ctx, n, k, mode, ez),
                                     None) is None
                        assert _level_set_is_empty(ctx, n, k, mode, ez) \
                            == empty


def test_broken_invariants_raise_without_asserts(monkeypatch):
    # explicit raises, so python -O keeps these checks
    ctx = build_tower(3)
    monkeypatch.setattr(ctx, "q_sub", lambda a, b: ctx.q)
    with pytest.raises(RuntimeError, match="residual landed outside"):
        cone_encs(ctx, 2, 1, FULL_FIELD)
    # the sampler checks its residual with the walk's code
    for mode in (FULL_FIELD, SUBFIELD):
        with pytest.raises(RuntimeError, match="residual landed outside"):
            list(sample_cone_encs(ctx, 2, 1, mode, False, 5, random.Random(0)))
    monkeypatch.setattr(oracles, "is_unitary", lambda u: False)
    with pytest.raises(RuntimeError):
        random_unitary_2x2(build_tower(3), random.Random(0))
