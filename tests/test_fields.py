"""Tower construction and arithmetic on element codes."""

import hashlib
import inspect
import itertools
import json
import random

import pytest

from hermrange.fields import (FieldCtx, FieldSpec, _first_irreducible_fp,
                              _is_prime, _pmod, _prime_factors, build_tower,
                              ctx_from_spec)

from conftest import TOWER_PARAMS


def test_tower_shapes(towers):
    for q, ctx in towers.items():
        p, m = TOWER_PARAMS[q]
        assert (ctx.p, ctx.m, ctx.q, ctx.q2) == (p, m, q, q * q)


def test_known_extension_tables(f2, f3):
    # p=2: modulus is t^2+t+1, so t*t = 1+t; p=3: t^2+1, so t*t = -1
    assert f2.mul_enc(2, 2) == 3
    assert f3.mul_enc(3, 3) == 2
    assert f3.frob_enc(3) == 6  # t^3 = -t
    assert f2.norm_enc(2) == 1
    assert f3.norm_enc(3) == 1  # t * (-t) = -t^2 = 1
    # code a0 + q * a1 reads a0 + a1*t
    assert [f3.poly_str(e) for e in (0, 2, 3, 7)] == ["0", "2", "1*t", "1+2*t"]


def test_field_axioms_sampled(towers):
    rng = random.Random(101)
    for ctx in towers.values():
        add, mul = ctx.add_enc, ctx.mul_enc
        for _ in range(60):
            a, b, c = (rng.randrange(ctx.q2) for _ in range(3))
            assert add(add(a, b), c) == add(a, add(b, c))
            assert add(a, b) == add(b, a)
            assert mul(mul(a, b), c) == mul(a, mul(b, c))
            assert mul(a, b) == mul(b, a)
            assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
            assert add(a, ctx.neg_enc(a)) == 0
            if b:
                assert mul(b, ctx.div_enc(a, b)) == a
            assert ctx.pow_enc(a, 2) == mul(a, a)


def test_spec_round_trip(f5):
    spec = FieldSpec.from_json_dict(f5.spec.to_json_dict())
    assert spec == f5.spec
    rebuilt = ctx_from_spec(spec)
    assert [rebuilt.mul_enc(a, b) for a in range(25) for b in range(7, 12)] \
        == [f5.mul_enc(a, b) for a in range(25) for b in range(7, 12)]


def test_tower_specs_digest():
    # every prime power up to 4096 and five larger towers, including the
    # biggest field the command line accepts; the moduli in these specs
    # pin the irreducibility test, the trial division and the F_q
    # arithmetic the quadratic modulus search runs on
    towers = [(p, m) for p in range(2, 4097) if _is_prime(p)
              for m in range(1, 13) if p ** m <= 4096]
    towers += [(2, 14), (2, 20), (3, 12), (5, 8), (7, 7)]
    assert len(towers) == 609
    text = json.dumps([build_tower(p, m).spec.to_json_dict()
                       for p, m in towers],
                      sort_keys=True, separators=(",", ":")) + "\n"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "f32e6009ac909e4966439d650287c7726f3f0586193cd16171fda51055547197")


def _first_irreducible_by_trial_division(p, m):
    """The first monic degree-m candidate in digit order that no monic
    polynomial of degree 1 to m // 2 divides."""
    divisors = [list(low) + [1] for d in range(1, m // 2 + 1)
                for low in itertools.product(range(p), repeat=d)]
    for low in itertools.product(range(p), repeat=m):
        f = list(reversed(low)) + [1]
        if all(_pmod(f, g, p) != [0] for g in divisors):
            return tuple(f)
    raise AssertionError("no irreducible candidate")


def test_first_irreducible_matches_trial_division():
    cases = [(p, m) for p in range(2, 730) if _is_prime(p)
             for m in range(1, 10) if p ** m <= 729]
    for p, m in cases:
        assert _first_irreducible_fp(p, m) == \
            _first_irreducible_by_trial_division(p, m), (p, m)


def test_prime_field_powers_match_builtin_pow():
    rng = random.Random(17)
    for p in (2, 3, 5, 7, 23, 67, 1031):
        ctx = build_tower(p)
        small = p < 100
        exps = list(range(-2 * p, 2 * p + 2)) if small else [
            rng.randrange(-2 * p, 2 * p) for _ in range(40)]
        exps.append(rng.randrange(-10 ** 6, 10 ** 6))
        for a in range(p) if small else rng.sample(range(p), 40):
            for e in exps:
                if a == 0 and e < 0:
                    continue
                assert ctx.q_pow(a, e) == pow(a, e, p), (p, a, e)


def test_trial_division_matches_a_filter():
    primes = [n for n in range(2, 3000)
              if all(n % d for d in range(2, n))]
    assert [n for n in range(-2, 3000) if _is_prime(n)] == primes
    for n in range(1, 3000):
        assert _prime_factors(n) == [d for d in primes if n % d == 0], n
    # the test stops at the least factor, so a huge composite p is refused
    # at once rather than after some 2^64 trial divisions
    with pytest.raises(ValueError, match="p must be prime"):
        build_tower(3 * (2 ** 127 - 1))


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
        frob = ctx.frob_enc
        for _ in range(30):
            a, b = rng.randrange(ctx.q2), rng.randrange(ctx.q2)
            assert frob(ctx.add_enc(a, b)) == ctx.add_enc(frob(a), frob(b))
            assert frob(ctx.mul_enc(a, b)) == ctx.mul_enc(frob(a), frob(b))


def test_norm_lands_in_subfield_and_is_multiplicative(towers):
    rng = random.Random(13)
    for ctx in towers.values():
        norm = ctx.norm_enc
        for _ in range(40):
            a, b = rng.randrange(ctx.q2), rng.randrange(ctx.q2)
            assert norm(a) < ctx.q
            assert norm(a) == ctx.mul_enc(a, ctx.frob_enc(a))
            assert norm(ctx.mul_enc(a, b)) == ctx.mul_enc(norm(a), norm(b))


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


def test_subfield_squares(towers, formula_tower):
    # roots come from the log table for odd q; they must match a filter
    rng = random.Random(5)
    cases = [(ctx, range(ctx.q)) for ctx in
             (*towers.values(), formula_tower(3, 2))]
    cases.append((build_tower(1031),
                  [0, 1, 1030] + rng.sample(range(2, 1030), 12)))
    for ctx, values in cases:
        squares = {ctx.q_mul(x, x) for x in range(ctx.q)}
        for a in values:
            assert ctx.q_is_square(a) == (a in squares)
            roots = ctx.q_sqrt_encs(a)
            assert roots == tuple(x for x in range(ctx.q)
                                  if ctx.q_mul(x, x) == a), (ctx, a)
            if ctx.p == 2:
                assert len(roots) == 1
            else:
                assert len(roots) == (1 if a == 0 else 2 if a in squares else 0)


def _least_generator(ctx):
    # the smallest code whose powers reach 1 only after q - 1 steps
    for cand in range(1, ctx.q):
        acc, order = cand, 1
        while acc != 1:
            acc = ctx.q_mul(acc, cand)
            order += 1
        if order == ctx.q - 1:
            return cand
    raise AssertionError("no generator")


def test_log_and_exp_are_inverse_bijections(towers):
    # the one F_q log table behind square roots and norm preimages
    for ctx in (*towers.values(), build_tower(67), build_tower(3, 4),
                build_tower(1031)):
        log, exp = ctx._logs()
        q = ctx.q
        assert sorted(exp) == list(range(1, q)), ctx
        assert log[0] is None
        assert all(log[exp[j]] == j for j in range(q - 1)), ctx
        assert all(exp[log[a]] == a for a in range(1, q)), ctx
        gen = _least_generator(ctx)
        assert all(exp[j] == ctx.q_pow(gen, j) for j in range(q - 1)), ctx


def test_pow_and_inverse(f9):
    rng = random.Random(3)
    for _ in range(25):
        a = rng.randrange(1, 81)
        assert f9.mul_enc(a, f9.inv_enc(a)) == 1
        assert f9.pow_enc(a, -1) == f9.inv_enc(a)
        assert f9.pow_enc(a, 80) == 1
    with pytest.raises(ZeroDivisionError):
        f9.inv_enc(0)
    for a in range(1, f9.q):
        assert f9.q_mul(a, f9.q_inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        f9.q_inv(0)


def test_only_pairwise_subfields_tabulate_inverses():
    # F_q inverses are a^(q-2) on every tier: the pairwise tier (m > 1,
    # q <= 64) reads them through its multiplication table, the digit and
    # residue tiers compute them, and no tier builds a q-length table to
    # invert
    for ctx in (build_tower(2, 6), build_tower(2, 7), build_tower(67)):
        for a in range(1, ctx.q):
            assert ctx.q_mul(a, ctx.q_inv(a)) == 1
        assert ctx._log_exp is None, ctx


def test_broken_invariants_raise_without_asserts(monkeypatch, formula_tower):
    # explicit raises, so python -O keeps these checks
    # with the identity as Frobenius the norm map squares, which leaves F_q
    monkeypatch.setattr(FieldCtx, "_frob_poly", lambda self, x: x)
    with pytest.raises(RuntimeError):
        build_tower(3)  # the table tier checks every norm up front
    poly = formula_tower(3)
    with pytest.raises(RuntimeError):
        for x in range(poly.q2):
            poly.norm_enc(x)


def test_prime_residue_tier_matches_the_digit_routines(monkeypatch):
    for p in (2, 3, 61, 67):
        ctx = build_tower(p)
        for a in range(p):
            assert ctx.q_neg(a) == ctx._q_neg_poly(a)
            for b in range(p):
                assert ctx.q_add(a, b) == ctx._q_add_poly(a, b)
                assert ctx.q_sub(a, b) == ctx._q_sub_poly(a, b)
                assert ctx.q_mul(a, b) == ctx._q_mul_poly(a, b)
    f1031 = build_tower(1031)
    rng = random.Random(5)
    for _ in range(3000):
        a, b = rng.randrange(1031), rng.randrange(1031)
        assert f1031.q_neg(a) == f1031._q_neg_poly(a)
        assert f1031.q_add(a, b) == f1031._q_add_poly(a, b)
        assert f1031.q_sub(a, b) == f1031._q_sub_poly(a, b)
        assert f1031.q_mul(a, b) == f1031._q_mul_poly(a, b)

    # every prime field is on the residue tier, which never falls back to
    # the digit routines, so no prime field builds F_q pairwise tables
    def digits_called(*args):
        raise AssertionError("digit routine called")

    for name in ("_q_add_poly", "_q_mul_poly", "_q_neg_poly", "_q_sub_poly"):
        monkeypatch.setattr(FieldCtx, name, digits_called)
    for p in (2, 3, 61, 67):
        ctx = build_tower(p)
        assert len(ctx.norm_preimage_encs(ctx.q_neg(1))) == p + 1


def test_each_tier_subtracts_as_add_of_the_negation(formula_tower):
    # q = 4 on both table tiers, q = 67 on residues with F_{q^2} formulas,
    # q = 81 on digit vectors, q = 1031 on residues, and a small tower on
    # the F_{q^2} formulas over F_q tables
    def check(ctx, pairs, pairs2):
        for a, b in pairs:
            assert ctx.q_sub(a, b) == ctx.q_add(a, ctx.q_neg(b)), (ctx, a, b)
        for a, b in pairs2:
            assert ctx.sub_enc(a, b) == ctx.add_enc(a, ctx.neg_enc(b)), \
                (ctx, a, b)

    def every(n):
        return [(a, b) for a in range(n) for b in range(n)]

    def seeded(n, rng):
        return [(rng.randrange(n), rng.randrange(n)) for _ in range(2000)]

    rng = random.Random(13)
    f4, f67 = build_tower(2, 2), build_tower(67)
    check(f4, every(4), every(16))
    check(f67, every(67), seeded(f67.q2, rng))
    for ctx in (build_tower(3, 4), build_tower(1031), formula_tower(3, 2)):
        check(ctx, seeded(ctx.q, rng), seeded(ctx.q2, rng))


@pytest.mark.parametrize("p,m", [(3, 1), (5, 1), (67, 1), (2, 5), (3, 3)],
                         ids=["3", "5", "67", "2^5", "3^3"])
def test_norm_preimages_match_a_brute_force_filter(p, m, formula_tower):
    # the norm as the power x^(q+1), independent of the Frobenius and of
    # the walk's tables; both tiers take preimages from the same walk,
    # and 2^5 and 3^3 reach the formula tier with even q and with m > 1
    for ctx in (build_tower(p, m), formula_tower(p, m)):
        fibres = [[] for _ in range(ctx.q)]
        for x in range(ctx.q2):
            fibres[ctx.pow_enc(x, ctx.q + 1)].append(x)
        for a in range(ctx.q):
            assert ctx.norm_preimage_encs(a) == tuple(fibres[a]), (p, m, a)


def test_norm_preimage_pick_matches_the_listing(towers):
    for ctx in towers.values():
        for a in range(ctx.q):
            pre = ctx.norm_preimage_encs(a)
            assert [ctx.norm_preimage_enc(a, r) for r in range(len(pre))] \
                == list(pre), (ctx, a)


def test_norm_preimage_pick_at_the_walk_boundaries():
    # s - 1 and s straddle the square roots at x1 = 0 and the first step
    # counted from the size table; q // 2 and q // 2 + 1 straddle the
    # switch to counting down from x1 = q - 1
    ctx = build_tower(1031)
    for a in range(ctx.q):
        pre = ctx.norm_preimage_encs(a)
        s = len(ctx.q_sqrt_encs(a))
        for r in {0, s - 1, s, ctx.q // 2, ctx.q // 2 + 1, ctx.q}:
            if 0 <= r < len(pre):
                assert ctx.norm_preimage_enc(a, r) == pre[r], (a, r)


@pytest.mark.parametrize("p,m", [(2, 7), (3, 4)], ids=["2^7", "3^4"])
def test_norm_preimage_pick_on_digit_towers(p, m):
    # m > 1 and q > 64: F_q on digit polynomials and F_{q^2} on formulas;
    # every index of zero, of squares and, for odd q, of nonsquares
    ctx = build_tower(p, m)
    rng = random.Random(ctx.q)
    values = rng.sample(range(1, ctx.q), 40)
    squares = [a for a in values if ctx.q_is_square(a)][:3]
    nonsquares = [a for a in values if not ctx.q_is_square(a)][:3]
    assert len(squares) == 3 and len(nonsquares) == (0 if p == 2 else 3)
    for a in [0, 1] + squares + nonsquares:
        pre = ctx.norm_preimage_encs(a)
        assert [ctx.norm_preimage_enc(a, r) for r in range(len(pre))] \
            == list(pre), a


def test_subfield_arguments_out_of_range_are_refused(f7):
    # -3 once passed for 4, and 9 raised IndexError
    for code in (-3, -1, 7, 9):
        for call, what in ((f7.q_sqrt_encs, "square roots"),
                           (f7.norm_preimage_encs, "norm preimages"),
                           (lambda a: f7.norm_preimage_enc(a, 0),
                            "norm preimages")):
            with pytest.raises(ValueError,
                               match=f"^{what} only defined over F_q, "
                                     f"got code {code}$"):
                call(code)
    for a, r in ((0, 1), (0, -1), (1, -1), (1, 8), (6, 8)):
        with pytest.raises(ValueError, match=f"index {r} out of range"):
            f7.norm_preimage_enc(a, r)
    assert f7.norm_preimage_enc(0, 0) == 0
    assert f7.norm_preimage_enc(6, 7) == f7.norm_preimage_encs(6)[7]


def test_frobenius_matches_the_q_power(towers, formula_tower):
    # the closed form (a0 - e1 a1) - a1 t against repeated squaring
    for q, (p, m) in TOWER_PARAMS.items():
        for ctx in (towers[q], formula_tower(p, m)):
            for x in range(ctx.q2):
                assert ctx.frob_enc(x) == ctx.pow_enc(x, q), (q, x)
    for q in (23, 67, 1031):
        ctx = build_tower(q)
        rng = random.Random(q)
        for _ in range(2000):
            x = rng.randrange(ctx.q2)
            assert ctx.frob_enc(x) == ctx.pow_enc(x, q), (q, x)


def test_spec_must_name_the_canonical_tower(f5):
    # FieldCtx takes (p, m) alone, and no constructor takes a tuning
    # option; a spec only names the tower they give
    for func, params in ((FieldCtx, ["p", "m"]), (build_tower, ["p", "m"]),
                         (ctx_from_spec, ["spec"])):
        assert list(inspect.signature(func).parameters) == params, func
    good = f5.spec.to_json_dict()
    for key, value in (("base_modulus", [1, 1]),
                       ("ext_modulus", [[3], [0], [1]]),
                       ("ext_modulus", [[2], [0]])):
        bad = FieldSpec.from_json_dict(dict(good, **{key: value}))
        with pytest.raises(ValueError, match="canonical tower"):
            ctx_from_spec(bad)
    with pytest.raises(ValueError, match="malformed field spec"):
        FieldSpec.from_json_dict({"p": 5, "m": 1})


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
    # 2 is a nonsquare mod 67, so every preimage of 2 has x1 != 0 and
    # comes through the log, fiber and size tables
    ctx = build_tower(67)
    ctx.norm_preimage_encs(1)  # builds the walk's tables
    (log, exp), (fibers, sizes, steps) = ctx._log_exp, ctx._walk
    d2 = exp[2]
    broken = (
        # a missing logarithm
        (([None] * ctx.q, exp), fibers),
        # each value takes the fiber of d2 times it, so the walk lists the
        # q + 1 preimages of 2 * d2 instead
        ((log, exp), [fibers[ctx.q_mul(c, d2)] for c in range(ctx.q)]),
        # no fiber holds anything, so the walk finds no preimage
        ((log, exp), [()] * ctx.q),
    )
    for logs, walk_fibers in broken:
        ctx._log_exp, ctx._walk = logs, (walk_fibers, sizes, steps)
        for call in (ctx.norm_preimage_encs,
                     lambda a: ctx.norm_preimage_enc(a, 0),
                     lambda a: ctx.norm_preimage_enc(a, ctx.q)):
            with pytest.raises(RuntimeError):
                call(2)
    # square roots read the same log table
    ctx._log_exp = broken[0][0]
    with pytest.raises(RuntimeError):
        ctx.q_sqrt_encs(4)

    # a size table that disagrees with every fiber: at each r the chosen
    # fiber's length refutes its table size, or the sizes run out, instead
    # of the pick yielding another preimage of 2 or an IndexError
    ctx._log_exp = (log, exp)
    ctx._walk = (fibers, [(s + 1) % 3 for s in sizes], steps)
    for r in range(ctx.q + 1):
        with pytest.raises(RuntimeError):
            ctx.norm_preimage_enc(2, r)
    # the listing reads no sizes
    assert ctx.norm_preimage_encs(2) == build_tower(67).norm_preimage_encs(2)


def _scan_roots(ctx, pairs):
    """Roots of x^2 + b x + c by scanning F_{q^2}, grouped by b so each
    x^2 + b x is evaluated once per b."""
    q2 = ctx.q2
    squares = [ctx.mul_enc(x, x) for x in range(q2)]
    by_b = {}
    for b, c in pairs:
        by_b.setdefault(b, []).append(c)
    out = {}
    for b, cs in by_b.items():
        hits = {}
        for x in range(q2):
            hits.setdefault(ctx.add_enc(squares[x], ctx.mul_enc(b, x)),
                            []).append(x)
        for c in cs:
            out[(b, c)] = tuple(hits.get(ctx.neg_enc(c), ()))
    return out


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 23])
def test_quadratic_roots_match_the_scan(towers, formula_tower, q):
    # every tower takes roots from the formulas (Frobenius square root
    # and trace formula for even q, square roots through the norm for
    # odd q); they agree with a scan on the tables and across tiers
    p, m = TOWER_PARAMS.get(q, (q, 1))
    table = towers[q] if q in towers else build_tower(p, m)
    if q <= 8:
        pairs = [(b, c) for b in range(q * q) for c in range(q * q)]
    else:
        rng = random.Random(q)
        pairs = [(rng.randrange(q * q), rng.randrange(q * q))
                 for _ in range(2000)]
    expect = _scan_roots(table, pairs)
    for ctx in (table, formula_tower(p, m)):
        for b, c in pairs:
            assert ctx.quadratic_roots_enc(b, c) == expect[(b, c)], (b, c)


def _first_irreducible_char2(ctx):
    """The full scan over e0 + q * e1: t^2 + e1 t + e0 is irreducible
    exactly when e1 != 0 and Tr(e0 / e1^2) = 1."""
    for v in range(ctx.q2):
        e0, e1 = v % ctx.q, v // ctx.q
        if e1 == 0:
            continue
        tr, acc = 0, ctx.q_mul(e0, ctx.q_inv(ctx.q_mul(e1, e1)))
        for _ in range(ctx.m):
            tr, acc = ctx.q_add(tr, acc), ctx.q_mul(acc, acc)
        if tr == 1:
            return (e0, e1, 1)


def test_char2_modulus_is_the_first_irreducible_quadratic():
    for m in range(1, 15):
        ctx = build_tower(2, m)
        e0, e1, e2 = (int("".join(map(str, reversed(v))), 2)
                      for v in ctx.spec.ext_modulus)
        assert (e0, e1, e2) == _first_irreducible_char2(ctx), m
        if m <= 8:
            # by definition: no root in F_q
            assert all(ctx.q_add(ctx.q_add(ctx.q_mul(x, x), ctx.q_mul(e1, x)),
                                 e0) for x in range(ctx.q))


def test_building_a_tower_past_the_table_tier_makes_no_extension_arithmetic(
        monkeypatch):
    # the formula tier computes F_{q^2} operations when asked, so a tower
    # makes no q^2-length pass before any work
    calls = []
    for name in ("_mul2_poly", "_neg2_poly", "_sub2_poly", "_frob_poly"):
        def counted(self, *args, _real=getattr(FieldCtx, name), _name=name):
            calls.append(_name)
            return _real(self, *args)
        monkeypatch.setattr(FieldCtx, name, counted)
    for p, m in ((2, 7), (1021, 1)):
        ctx = build_tower(p, m)
        assert calls == [], (p, m)
    # the counters are live: the tower's own operations go through them
    ctx.norm_enc(ctx.q + 1)
    assert calls == ["_frob_poly", "_mul2_poly"]


def test_context_stays_under_the_shared_key_limit(formula_tower):
    # from 30 instance attributes on, CPython 3.11 stops specializing
    # attribute reads on the context, which slows every arithmetic call.
    # Lazy state is declared in __init__, so using the tower adds none,
    # and one slot stays free for perfbench's traced norm_preimage_encs.
    for ctx in (build_tower(2, 2), build_tower(23), formula_tower(3, 2),
                build_tower(1031)):
        ctx.norm_preimage_encs(1)
        ctx.quadratic_roots_enc(1, 1)
        ctx.q_sqrt_encs(1)
        ctx.q_inv(1)
        assert len(vars(ctx)) < 29, sorted(vars(ctx))
    assert len(vars(build_tower(23))) == 22
    # every tier binds its operations in one order, so all contexts share
    # one key layout
    assert len({tuple(vars(ctx)) for ctx in (
        build_tower(2, 2), build_tower(23), build_tower(3, 4),
        formula_tower(3, 2), build_tower(1031))}) == 1
