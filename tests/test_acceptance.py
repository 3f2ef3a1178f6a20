"""Acceptance gate: thirteen checks, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Every comparison is exact; randomized parts are seeded.
"""

import contextlib
import itertools
import random

from hermrange import (FULL_FIELD, SUBFIELD, HermMatrix, PASS, cone_encs,
                       evaluate, fiber_count, num0_prime, num0_prime_subfield,
                       num_k_subfield, predict_subfield, resolve_affine_shift,
                       run_exhaustive_2x2, scalar_fiber_formula,
                       scaling_law_check)

from oracles import dagger, matmul, naive_cone_encs, random_unitary_2x2


@contextlib.contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"acceptance {num:02d} {name}: FAIL")
        raise
    print(f"acceptance {num:02d} {name}: PASS")


def _m(ctx, rows):
    return HermMatrix.from_encs(ctx, tuple(tuple(r) for r in rows))


def _diag(ctx, encs):
    n = len(encs)
    return _m(ctx, [[encs[i] if i == j else 0 for j in range(n)]
                    for i in range(n)])


def _pattern(ctx, d, s):
    """Matrix with diagonal d and the full off-diagonal sums s (i < j
    order) carried in the upper triangle."""
    n = len(d)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = d[i]
    it = iter(s)
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = next(it)
    return _m(ctx, rows)


def _verify_preds(m, preds):
    """Check each prediction against the matching engine; return tags."""
    for pred, outcome in zip(preds, evaluate(m, preds)):
        assert outcome[-1] == PASS, pred
    return {p.basis for p in preds}


def test_norm_preimage_counts(towers):
    with criterion(1, "norm-preimage-counts"):
        for q in sorted(towers):
            ctx = towers[q]
            for a in range(1, ctx.q):
                assert len(ctx.norm_preimage_encs(a)) == ctx.q + 1
            assert len(ctx.norm_preimage_encs(0)) == 1
            assert len(ctx.norm_preimage_encs(ctx.q_neg(1))) == ctx.q + 1


def test_dagger_duality(f2, f3):
    with criterion(2, "dagger-duality"):
        for encs in itertools.product(range(4), repeat=4):
            m = _m(f2, [encs[0:2], encs[2:4]])
            assert num0_prime(m).cardinality \
                == num0_prime(dagger(m)).cardinality
        rng = random.Random(11)
        for _ in range(500):
            m = _m(f3, [[rng.randrange(f3.q2) for _ in range(2)]
                        for _ in range(2)])
            assert num0_prime(m).cardinality \
                == num0_prime(dagger(m)).cardinality


def test_scaling_law(f2, f3):
    with criterion(3, "scaling-law"):
        for encs in itertools.product(range(4), repeat=4):
            assert scaling_law_check(_m(f2, [encs[0:2], encs[2:4]]))
        rng = random.Random(13)
        for _ in range(200):
            m = _m(f3, [[rng.randrange(f3.q2) for _ in range(2)]
                        for _ in range(2)])
            assert scaling_law_check(m)


def test_split_diagonal_line(f2, f3):
    with criterion(4, "split-diagonal-line"):
        for ctx in (f2, f3):
            for c1 in range(ctx.q2):
                for c2 in range(ctx.q2):
                    if c1 == c2:
                        continue
                    diff = ctx.sub_enc(c2, c1)
                    line = {ctx.mul_enc(t, diff) for t in range(1, ctx.q)}
                    rs = num0_prime(_diag(ctx, (c1, c2)))
                    assert set(rs.values) == line
                    assert rs.cardinality == ctx.q - 1
                    assert 0 not in rs.values


def test_jordan_type_cardinality(towers):
    with criterion(5, "jordan-type-cardinality"):
        rng = random.Random(17)
        for q in (2, 3, 4, 5):
            ctx = towers[q]
            expect = ctx.q2 - 1 if q % 2 == 0 else (ctx.q2 - 1) // 2
            for _ in range(20):
                c = rng.randrange(ctx.q2)
                d = rng.randrange(1, ctx.q2)
                u = random_unitary_2x2(ctx, rng)
                m = matmul(matmul(dagger(u), _m(ctx, [[c, d], [0, c]])), u)
                rs = num0_prime(m)
                assert 0 not in rs.values
                assert rs.cardinality == expect


def test_isotropic_pair_line(f2, f3):
    with criterion(6, "isotropic-pair-line"):
        for ctx, c_pairs in ((f2, ((0, 1), (1, 2), (0, 3))),
                             (f3, ((0, 1), (2, 5), (1, 8)))):
            th1, th2 = ctx.norm_preimage_encs(ctx.q_neg(1))[:2]
            p = _m(ctx, [[1, 1], [th1, th2]])  # isotropic columns
            det = ctx.sub_enc(th2, th1)
            p_inv = _m(ctx, [[ctx.div_enc(th2, det),
                              ctx.div_enc(ctx.neg_enc(1), det)],
                             [ctx.div_enc(ctx.neg_enc(th1), det),
                              ctx.div_enc(1, det)]])
            for c1, c2 in c_pairs:
                rs = num0_prime(matmul(matmul(p, _diag(ctx, (c1, c2))), p_inv))
                assert rs.cardinality == ctx.q
                assert 0 in rs.values
                o = next(v for v in rs.values if v)
                assert set(rs.values) \
                    == {ctx.mul_enc(t, o) for t in range(ctx.q)}


def test_zero_level_bounds(f2, f3):
    with criterion(7, "zero-level-bounds"):
        for ctx, nonscalar in ((f2, 252), (f3, 6552)):
            report = run_exhaustive_2x2(ctx, space="full", collect="fails")
            assert report["summary"]["fail"] == 0
            by = report["summary"]["by_citation"]
            assert by["cor1"]["pass"] == nonscalar
            if ctx.q > 2:
                assert by["prop4.ii"]["pass"] > 0


def test_plane_trichotomy(towers):
    with criterion(8, "plane-trichotomy"):
        # q = 3 mod 4: the punctured subfield null range is always empty
        f7 = towers[7]
        for encs in itertools.product(range(7), repeat=4):
            assert num0_prime_subfield(_m(f7, [encs[0:2], encs[2:4]])).values \
                == ()
        # even q: membership of 0 is decided by the entry sum, and a
        # split diagonal fills every nonzero level completely
        for q in (2, 4, 8):
            ctx = towers[q]
            report = run_exhaustive_2x2(ctx, space="subfield",
                                        collect="fails")
            assert report["summary"]["fail"] == 0
            assert report["summary"]["by_citation"]["prop5.ii"]["pass"] > 0
            for d1, d2, s in itertools.product(range(ctx.q), repeat=3):
                m = _pattern(ctx, (d1, d2), (s,))
                rs = num0_prime_subfield(m)
                if ctx.q_add(ctx.q_add(d1, d2), s) == 0:
                    assert rs.values == (0,)
                else:
                    assert rs.values == tuple(range(1, ctx.q))
                if s == 0 and d1 != d2:
                    for k in range(1, ctx.q):
                        assert num_k_subfield(m, k).values \
                            == tuple(range(ctx.q))
        # q = 1 mod 4: half bounds and the split-diagonal exact counts
        for q in (5, 9):
            ctx = towers[q]
            report = run_exhaustive_2x2(ctx, space="subfield",
                                        collect="fails")
            assert report["summary"]["fail"] == 0
            by = report["summary"]["by_citation"]
            assert by["prop5.iii1"]["pass"] > 0
            assert by["prop5.iii2"]["pass"] > 0
            for d1, d2, s in itertools.product(range(ctx.q), repeat=3):
                if s != 0:
                    rs = num_k_subfield(_pattern(ctx, (d1, d2), (s,)),
                                        0)
                    nonzero = [v for v in rs.values if v]
                    assert len(nonzero) >= (ctx.q - 1) // 2
                elif d1 != d2:
                    m = _pattern(ctx, (d1, d2), (0,))
                    assert num_k_subfield(m, 0).cardinality \
                        == (ctx.q + 1) // 2
                    assert num0_prime_subfield(m).cardinality \
                        == (ctx.q - 1) // 2


def test_even_q_balance(f2, f4):
    with criterion(9, "even-q-balance"):
        for ctx in (f2, f4):
            q = ctx.q
            for n in (2, 3):
                pairs = n * (n - 1) // 2
                for flat in itertools.product(range(q), repeat=n + pairs):
                    d, s = flat[:n], flat[n:]
                    m = _pattern(ctx, d, s)
                    balanced = all(
                        ctx.q_add(ctx.q_add(d[i], d[j]), s[idx]) == 0
                        for idx, (i, j) in enumerate(
                            (i, j) for i in range(n)
                            for j in range(i + 1, n)))
                    rs = num0_prime_subfield(m)
                    if balanced:
                        assert rs.values == (0,)
                    elif n == 2:
                        assert rs.values == tuple(range(1, q))
                    else:
                        assert set(rs.values) >= set(range(1, q))
            rng = random.Random(19)
            for _ in range(1000):
                n = 4
                d = tuple(rng.randrange(q) for _ in range(n))
                s = tuple(rng.randrange(q) for _ in range(6))
                m = _pattern(ctx, d, s)
                balanced = all(
                    ctx.q_add(ctx.q_add(d[i], d[j]), s[idx]) == 0
                    for idx, (i, j) in enumerate(
                        (i, j) for i in range(n) for j in range(i + 1, n)))
                rs = num0_prime_subfield(m)
                if balanced:
                    assert rs.values == (0,)
                else:
                    assert rs.values == tuple(range(q))


def test_scalar_fiber_counts(towers):
    with criterion(10, "scalar-fiber-counts"):
        for q in sorted(towers):
            ctx = towers[q]
            c_encs = range(1, ctx.q) if ctx.q <= 5 else (1, 2)
            for n in (2, 3, 4, 5):
                for c in c_encs:
                    scalar = HermMatrix.scalar(ctx, n, c)
                    assert fiber_count(scalar, 0).count \
                        == scalar_fiber_formula(ctx.q, n)


def test_diagonal_pattern_bounds(towers):
    with criterion(11, "diagonal-pattern-bounds"):
        rng = random.Random(23)
        seen = set()
        for q in (3, 5, 7):
            ctx = towers[q]
            for d in itertools.product(range(ctx.q), repeat=3):
                m = _pattern(ctx, d, (0, 0, 0))
                for ke in range(ctx.q):
                    seen |= _verify_preds(m, predict_subfield(m, (ke,)))
            for _ in range(200):
                d = tuple(rng.randrange(ctx.q) for _ in range(3))
                s = [0, 0, 0]
                s[rng.randrange(3)] = rng.randrange(1, ctx.q)
                m = _pattern(ctx, d, tuple(s))
                for ke in range(ctx.q):
                    seen |= _verify_preds(m, predict_subfield(m, (ke,)))
            for _ in range(40):
                d = tuple(rng.randrange(ctx.q) for _ in range(4))
                s = tuple(rng.randrange(ctx.q) for _ in range(6))
                m = _pattern(ctx, d, s)
                seen |= _verify_preds(m, predict_subfield(m, (0,)))
            for _ in range(20):
                a, b = rng.sample(range(ctx.q), 2)
                m = _pattern(ctx, (a, b, b, b), (0,) * 6)
                seen |= _verify_preds(m, predict_subfield(m, (0,)))
        for q in (3, 5):
            ctx = towers[q]
            for _ in range(20):
                d = tuple(rng.randrange(ctx.q) for _ in range(5))
                s = tuple(rng.randrange(ctx.q) for _ in range(10))
                m = _pattern(ctx, d, s)
                seen |= _verify_preds(m, predict_subfield(m, (0,)))
        for q in (2, 4):
            ctx = towers[q]
            for _ in range(20):
                d = tuple(rng.randrange(ctx.q) for _ in range(4))
                s = tuple(rng.randrange(ctx.q) for _ in range(6))
                m = _pattern(ctx, d, s)
                seen |= _verify_preds(m, predict_subfield(m, (0,)))
        assert {"prop8", "prop9", "prop10", "prop11", "cor2", "cor3",
                "cor4.i", "cor4.ii"} <= seen
        # every odd level splits across two scaled squares: a direct scan
        # of a1 x1^2 + a2 x2^2 over F_q x F_q reaches all of F_q
        for q in (3, 5, 7):
            ctx = towers[q]
            squares = [ctx.q_mul(x, x) for x in range(ctx.q)]
            for a1 in range(1, ctx.q):
                for a2 in range(1, ctx.q):
                    assert {ctx.q_add(ctx.q_mul(a1, s1), ctx.q_mul(a2, s2))
                            for s1 in squares for s2 in squares} \
                        == set(range(ctx.q))


def test_oracle_equivalence(towers):
    with criterion(12, "oracle-equivalence"):
        for q in sorted(towers):
            ctx = towers[q]
            for n in range(1, 9):
                if ctx.q2 ** n > 1 << 16:
                    break
                for ke in range(ctx.q):
                    for mode in (FULL_FIELD, SUBFIELD):
                        fast = cone_encs(ctx, n, ke, mode)
                        slow = tuple(naive_cone_encs(ctx, n, ke, mode))
                        assert fast == slow
                assert cone_encs(ctx, n, 0, FULL_FIELD)[1:] \
                    == tuple(naive_cone_encs(ctx, n, 0, FULL_FIELD, True))


def test_affine_shift_resolution(f3):
    with criterion(13, "affine-shift-resolution"):
        assert resolve_affine_shift(f3, k=2, trials=20,
                                    rng=random.Random(0)) == "ck"
        report = run_exhaustive_2x2(f3, space="subfield", collect="fails")
        assert report["affine_law"] == {"form": "ck", "decidable": True}
