"""Tower construction and element arithmetic."""

import random

import pytest

from hermrange.fields import (FieldCtx, FieldSpec, build_tower, ctx_from_spec,
                              frobenius, is_square, norm, norm_minus_one_roots,
                              norm_preimages, sqrt_subfield, two_square_rep)

from conftest import TOWER_PARAMS


def test_tower_shapes(towers):
    for q, ctx in towers.items():
        p, m = TOWER_PARAMS[q]
        assert (ctx.p, ctx.m, ctx.q, ctx.q2) == (p, m, q, q * q)
        assert len(list(ctx.elements())) == q * q
        subs = [e.enc for e in ctx.subfield_elements()]
        assert subs == list(range(q))
        assert all(ctx.elem(e).in_subfield == (e < q) for e in range(q * q))


def test_known_extension_tables(f2, f3):
    # p=2: modulus is t^2+t+1, so t*t = 1+t; p=3: t^2+1, so t*t = -1
    t2 = f2.ext_t
    assert t2.enc == 2 and (t2 * t2).enc == 3
    t3 = f3.ext_t
    assert t3.enc == 3 and (t3 * t3).enc == 2
    assert f3.frob_enc(3) == 6  # t^3 = -t
    assert f2.norm_enc(2) == 1
    assert f3.norm_enc(3) == 1  # t * (-t) = -t^2 = 1


def test_field_axioms_sampled(towers):
    rng = random.Random(101)
    for ctx in towers.values():
        for _ in range(60):
            a, b, c = (ctx.elem(rng.randrange(ctx.q2)) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert a + (-a) == ctx.zero
            if not b.is_zero:
                assert b * (a / b) == a
            assert a ** 2 == a * a


def test_elem_validation(f3):
    with pytest.raises(ValueError):
        f3.elem(9)
    with pytest.raises(ValueError):
        f3.elem(-1)


def test_spec_round_trip(f5):
    spec = FieldSpec.from_json_dict(f5.spec.to_json_dict())
    assert spec == f5.spec
    rebuilt = ctx_from_spec(spec)
    assert [rebuilt.mul_enc(a, b) for a in range(25) for b in range(7, 12)] \
        == [f5.mul_enc(a, b) for a in range(25) for b in range(7, 12)]


def test_canonical_construction_is_stable():
    a = build_tower(3, 2)
    b = build_tower(3, 2)
    assert a.spec == b.spec


def test_frobenius_properties(towers):
    rng = random.Random(7)
    for ctx in towers.values():
        fixed = {e for e in range(ctx.q2)
                 if ctx.frob_enc(ctx.frob_enc(e)) != e}
        assert not fixed  # involution
        assert {e for e in range(ctx.q2) if ctx.frob_enc(e) == e} \
            == set(range(ctx.q))
        for _ in range(30):
            a = ctx.elem(rng.randrange(ctx.q2))
            b = ctx.elem(rng.randrange(ctx.q2))
            assert frobenius(a + b) == frobenius(a) + frobenius(b)
            assert frobenius(a * b) == frobenius(a) * frobenius(b)


def test_norm_lands_in_subfield_and_is_multiplicative(towers):
    rng = random.Random(13)
    for ctx in towers.values():
        for _ in range(40):
            a = ctx.elem(rng.randrange(ctx.q2))
            b = ctx.elem(rng.randrange(ctx.q2))
            assert norm(a).in_subfield
            assert norm(a) == a * frobenius(a)
            assert norm(a * b) == norm(a) * norm(b)


def test_norm_preimage_counts(towers):
    for ctx in towers.values():
        assert ctx.norm_preimage_encs(0) == (0,)
        for a in range(1, ctx.q):
            pre = ctx.norm_preimage_encs(a)
            assert len(pre) == ctx.q + 1
            assert all(ctx.norm_enc(x) == a for x in pre)
        # preimages partition the field
        assert sum(len(ctx.norm_preimage_encs(a)) for a in range(ctx.q)) \
            == ctx.q2


def test_norm_minus_one_roots(towers):
    for ctx in towers.values():
        roots = norm_minus_one_roots(ctx)
        assert len(roots) == ctx.q + 1
        minus_one = ctx.q_neg(1)
        assert all(ctx.norm_enc(r.enc) == minus_one for r in roots)


def test_subfield_squares(towers):
    for ctx in towers.values():
        squares = {ctx.q_mul(x, x) for x in range(ctx.q)}
        for a in range(ctx.q):
            assert ctx.q_is_square(a) == (a in squares)
            roots = ctx.q_sqrt_encs(a)
            assert all(ctx.q_mul(r, r) == a for r in roots)
            if ctx.p == 2:
                assert len(roots) == 1
            else:
                assert len(roots) == (1 if a == 0 else 2 if a in squares else 0)
        a = ctx.elem(ctx.q - 1)
        assert is_square(a) == ctx.q_is_square(a.enc)
        assert all(r * r == a for r in sqrt_subfield(a))


def test_two_square_rep(towers):
    for ctx in towers.values():
        if ctx.p == 2:
            continue
        for a1 in range(1, ctx.q):
            for a2 in range(1, ctx.q):
                for k in range(ctx.q):
                    x, y = two_square_rep(ctx.elem(a1), ctx.elem(a2),
                                          ctx.elem(k))
                    assert ctx.elem(a1) * x * x + ctx.elem(a2) * y * y \
                        == ctx.elem(k)


def _brute_force_generator(ctx):
    # the smallest code whose powers reach 1 only after q^2 - 1 steps
    for cand in range(2, ctx.q2):
        acc, order = cand, 1
        while acc != 1:
            acc = ctx.mul_enc(acc, cand)
            order += 1
        if order == ctx.q2 - 1:
            return cand
    raise AssertionError("no generator")


def test_generator_order(towers):
    for ctx in towers.values():
        assert ctx.multiplicative_generator_enc() == _brute_force_generator(ctx)
    f67 = build_tower(67)
    assert f67.multiplicative_generator_enc() == _brute_force_generator(f67)
    assert f67.multiplicative_generator_enc() == 74


def test_pow_and_inverse(f9):
    rng = random.Random(3)
    for _ in range(25):
        a = rng.randrange(1, 81)
        assert f9.mul_enc(a, f9.inv_enc(a)) == 1
        assert f9.pow_enc(a, -1) == f9.inv_enc(a)
        assert f9.pow_enc(a, 80) == 1
    with pytest.raises(ZeroDivisionError):
        f9.inv_enc(0)


def test_broken_invariants_raise_without_asserts(monkeypatch):
    # explicit raises, so python -O keeps these checks
    ctx = build_tower(5)
    monkeypatch.setattr(ctx, "q_sqrt_encs", lambda a: (1,))
    with pytest.raises(RuntimeError):
        two_square_rep(ctx.one, ctx.one, ctx.elem(3))
    # with the identity as Frobenius the norm map squares, which leaves F_q
    monkeypatch.setattr(FieldCtx, "_frob_poly", lambda self, x: x)
    with pytest.raises(RuntimeError):
        build_tower(3)  # the table tier checks every norm up front
    poly = build_tower(3, table_threshold=0)
    with pytest.raises(RuntimeError):
        for x in range(poly.q2):
            poly.norm_enc(x)


def test_prime_residue_tier_matches_the_digit_routines(monkeypatch):
    f67 = build_tower(67)
    for a in range(67):
        assert f67.q_neg(a) == f67._q_neg_poly(a)
        for b in range(67):
            assert f67.q_add(a, b) == f67._q_add_poly(a, b)
            assert f67.q_mul(a, b) == f67._q_mul_poly(a, b)
    f1031 = build_tower(1031)
    rng = random.Random(5)
    for _ in range(3000):
        a, b = rng.randrange(1031), rng.randrange(1031)
        assert f1031.q_neg(a) == f1031._q_neg_poly(a)
        assert f1031.q_add(a, b) == f1031._q_add_poly(a, b)
        assert f1031.q_mul(a, b) == f1031._q_mul_poly(a, b)

    # the residue tier never falls back to the digit routines
    def digits_called(*args):
        raise AssertionError("digit routine called")

    for name in ("_q_add_poly", "_q_mul_poly", "_q_neg_poly"):
        monkeypatch.setattr(FieldCtx, name, digits_called)
    ctx = build_tower(67, table_threshold=0)
    assert len(ctx.norm_preimage_encs(ctx.q_neg(1))) == 68


@pytest.mark.parametrize("p", [3, 5, 67])
def test_norm_log_table_matches_the_buckets(p):
    buckets, logs = build_tower(p), build_tower(p, table_threshold=0)
    for a in range(p):
        assert logs.norm_preimage_encs(a) == buckets.norm_preimage_encs(a)


def test_large_field_norm_preimages():
    ctx = build_tower(1031)
    assert ctx.norm_preimage_encs(0) == (0,)
    rng = random.Random(11)
    for a in rng.sample(range(1, 1031), 4):
        pre = ctx.norm_preimage_encs(a)
        assert len(pre) == 1032
        assert list(pre) == sorted(set(pre))
        assert all(ctx.norm_enc(x) == a for x in pre)


def test_broken_norm_log_raises():
    ctx = build_tower(67, table_threshold=0)
    ctx.norm_preimage_encs(1)  # builds the log table
    ctx._norm_log = [None] * ctx.q
    with pytest.raises(RuntimeError):
        ctx.norm_preimage_encs(2)
    # a wrong logarithm yields a base of the wrong norm
    ctx._norm_log = [0] * ctx.q
    with pytest.raises(RuntimeError):
        ctx.norm_preimage_encs(2)
