"""Closed-form rules against the enumeration engines.

Each rule family gets a hand-built instance whose range was computed by
enumeration and frozen; sweeps then confirm that no applicable rule ever
contradicts the engines.  The *_declines tests pin down inputs that sit
just outside a rule's guard: the guards exist because the unrestricted
claims are false there, and each such test records the refuting range.
"""

import itertools
import random

import pytest

from hermrange import classify
from hermrange.classify import (CLAIM_EMPTY, CLAIM_EXACT_CARD,
                                CLAIM_EXACT_SET, CLAIM_LINE,
                                CLAIM_LOWER_BOUND, CLAIM_MEMBER,
                                CLAIM_SUPERSET, CLAIM_UPPER_BOUND, FAIL,
                                IRREDUCIBLE, PASS, REPEATED,
                                SCOPE_FIBER_ZERO, TWO_DISTINCT, Prediction,
                                check_prediction, eigen2, null_class,
                                predict_direct_sum, predict_full_field,
                                predict_subfield,
                                predict_unitary_diagonal,
                                scalar_fiber_formula, symmetrized)
from hermrange.hermitian import HermMatrix, block_diag, inner_encs
from hermrange.ranges import (EXHAUSTIVE, KIND_NUM0_PRIME,
                              KIND_NUM0_PRIME_SUBFIELD, KIND_NUM_K,
                              KIND_NUM_K_SUBFIELD, SAMPLED,
                              RangeSet, fiber_count, fiber_table, num0_prime,
                              num0_prime_subfield, num_k, num_k_subfield)
from hermrange.verify import evaluate

from conftest import TOWER_PARAMS
from oracles import apply, matmul, null_class_by_cases, range_naive


def _m(ctx, rows):
    return HermMatrix.from_encs(ctx, tuple(tuple(r) for r in rows))


def _diag(ctx, encs):
    n = len(encs)
    return _m(ctx, [[encs[i] if i == j else 0 for j in range(n)]
                    for i in range(n)])


def _check_all(m, preds):
    """Assert every prediction passes; return the set of rule tags."""
    for pred, outcome in zip(preds, evaluate(m, preds)):
        assert outcome[-1] == PASS, (pred, outcome)
    return {p.basis for p in preds}


def _inverse2(m):
    ctx = m.ctx
    (a, b), (c, d) = m.encs()
    det = ctx.sub_enc(ctx.mul_enc(a, d), ctx.mul_enc(b, c))
    return _m(ctx, [[ctx.div_enc(d, det), ctx.div_enc(ctx.neg_enc(b), det)],
                    [ctx.div_enc(ctx.neg_enc(c), det), ctx.div_enc(a, det)]])


# eigenstructure


def test_eigen2_two_distinct(f2):
    e = eigen2(_diag(f2, (0, 1)))
    assert e.status == TWO_DISTINCT
    assert e.eigenvalue_encs == (0, 1)
    assert e.eigenspace_dims == (1, 1)
    assert e.isotropic == (False, False)


def test_eigen2_eigenvectors_really_are(f9):
    rng = random.Random(3)
    seen = 0
    while seen < 8:
        m = _m(f9, [[rng.randrange(81) for _ in range(2)] for _ in range(2)])
        e = eigen2(m)
        if e.status == IRREDUCIBLE:
            continue
        seen += 1
        for c, v in zip(e.eigenvalue_encs, e.eigenvector_encs):
            assert any(v)
            assert apply(m, v) == tuple(f9.mul_enc(c, x) for x in v)


def test_eigen2_repeated_shapes(f4):
    scalar = eigen2(HermMatrix.scalar(f4, 2, 2))
    assert scalar.status == REPEATED
    assert scalar.eigenspace_dims == (2,)
    nil = eigen2(_m(f4, [[0, 1], [0, 0]]))
    assert nil.status == REPEATED
    assert nil.eigenspace_dims == (1,)
    assert nil.isotropic == (False,)


def test_eigen2_irreducible(f2):
    # char poly x^2 + x + t has no root in F_4
    e = eigen2(_m(f2, [[0, 2], [1, 1]]))
    assert e.status == IRREDUCIBLE
    assert e.eigenvalue_encs == ()
    # eigen2 and the full-field rules cover 2 by 2 matrices only
    with pytest.raises(ValueError):
        eigen2(HermMatrix.identity(f2, 3))
    with pytest.raises(ValueError, match="full-field rules cover n=2, got n=3"):
        predict_full_field(HermMatrix.identity(f2, 3))


def _eigen2_scan(m):
    """Eigenstructure as a root scan over F_{q^2} finds it."""
    ctx = m.ctx
    (a, b), (c, d) = m.encs()
    tr = ctx.add_enc(a, d)
    det = ctx.sub_enc(ctx.mul_enc(a, d), ctx.mul_enc(b, c))
    roots = [x for x in range(ctx.q2)
             if ctx.add_enc(ctx.sub_enc(ctx.mul_enc(x, x), ctx.mul_enc(tr, x)),
                            det) == 0]
    if not roots:
        return (IRREDUCIBLE, (), (), (), ())
    vectors, dims = [], []
    for r in roots:
        (s00, s01), (s10, s11) = ((ctx.sub_enc(a, r), b),
                                  (c, ctx.sub_enc(d, r)))
        if s00 or s01:
            kv, dim = (s01, ctx.neg_enc(s00)), 1
        elif s10 or s11:
            kv, dim = (s11, ctx.neg_enc(s10)), 1
        else:
            kv, dim = (1, 0), 2
        vectors.append(kv)
        dims.append(dim)
    status = TWO_DISTINCT if len(roots) == 2 else REPEATED
    return (status, tuple(roots), tuple(vectors),
            tuple(inner_encs(ctx, v, v) == 0 for v in vectors), tuple(dims))


def test_eigen2_matches_the_root_scan(towers, formula_tower):
    # both tiers: root formulas on the pairwise tables, and on a
    # formula-tier tower of the same field
    for q, table in towers.items():
        for ctx in (table, formula_tower(*TOWER_PARAMS[q])):
            rng = random.Random(q)
            for _ in range(200):
                m = _m(ctx, [[rng.randrange(ctx.q2) for _ in range(2)]
                             for _ in range(2)])
                e = eigen2(m)
                assert (e.status, e.eigenvalue_encs, e.eigenvector_encs,
                        e.isotropic, e.eigenspace_dims) == _eigen2_scan(m)


def test_unitary_diagonalizability(f2):
    # the Gram test of a non-scalar matrix: an orthogonal eigenbasis of
    # non-isotropic vectors
    assert eigen2(_diag(f2, (0, 1))).orthogonal_eigenbasis
    assert not eigen2(_m(f2, [[0, 1], [0, 0]])).orthogonal_eigenbasis
    # distinct eigenvalues but isotropic eigenvectors
    p = _m(f2, [[1, 1], [1, 2]])
    e = eigen2(matmul(matmul(p, _diag(f2, (0, 1))), _inverse2(p)))
    assert e.status == TWO_DISTINCT and e.isotropic == (True, True)
    assert not e.orthogonal_eigenbasis


# full-field rules, 2 by 2


def test_scalar_rule(f4):
    m = HermMatrix.scalar(f4, 2, 5)
    assert _check_all(m, predict_full_field(m)) == {"zero-in-num0", "remark4"}


def test_orthogonal_eigenbasis_gives_a_punctured_line(f2):
    m = _diag(f2, (0, 1))
    bases = _check_all(m, predict_full_field(m))
    assert "prop1d" in bases
    [p] = [p for p in predict_full_field(m) if p.basis == "prop1d"]
    assert p.target == (1,)


def test_nonisotropic_jordan_block_misses_zero(f2):
    m = _m(f2, [[0, 1], [0, 0]])
    preds = predict_full_field(m)
    bases = _check_all(m, preds)
    assert "prop2" in bases
    claims = {p.claim for p in preds if p.basis == "prop2"}
    assert claims == {CLAIM_MEMBER, CLAIM_EXACT_CARD, CLAIM_EXACT_SET}


def test_isotropic_eigenvectors_give_a_full_line(f2):
    p = _m(f2, [[1, 1], [1, 2]])
    m = matmul(matmul(p, _diag(f2, (0, 1))), _inverse2(p))
    preds = predict_full_field(m)
    assert any(p_.basis == "prop3" and p_.claim == CLAIM_LINE
               for p_ in preds)
    _check_all(m, preds)


def test_offdiagonal_norm_condition(f3):
    # pick an off-diagonal entry whose negated ratio has norm != 1
    x = next(x for x in range(1, 9) if f3.norm_enc(f3.neg_enc(x)) == 2)
    m = _m(f3, [[0, x], [1, 0]])
    preds = predict_full_field(m)
    bases = _check_all(m, preds)
    assert "prop4.ii" in bases
    [p] = [p_ for p_ in preds if p_.basis == "prop4.ii"]
    assert p.target == 4


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_offdiagonal_norm_condition_reads_the_norms(towers, q):
    # prop4.ii's N(-m12 / m21) != 1 is N(m12) != N(m21), since N(-1) = 1
    # and N is multiplicative; it holds for every nonzero pair
    ctx = towers[q]
    for m12 in range(1, ctx.q2):
        for m21 in range(1, ctx.q2):
            ratio = ctx.div_enc(ctx.neg_enc(m12), m21)
            assert (ctx.norm_enc(m12) != ctx.norm_enc(m21)) == \
                (ctx.norm_enc(ratio) != 1), (m12, m21)
    rng = random.Random(q)
    for _ in range(40):
        m12, m21 = rng.randrange(1, ctx.q2), rng.randrange(1, ctx.q2)
        ratio = ctx.div_enc(ctx.neg_enc(m12), m21)
        bases = {p.basis for p in predict_full_field(
            _m(ctx, [[rng.randrange(ctx.q2), m12], [m21, 0]]))}
        assert ("prop4.ii" in bases) == (ctx.norm_enc(ratio) != 1)


def test_full_field_sweep_never_contradicts(towers):
    rng = random.Random(83)
    for q in (2, 3):
        ctx = towers[q]
        for _ in range(20):
            m = _m(ctx, [[rng.randrange(ctx.q2) for _ in range(2)]
                         for _ in range(2)])
            _check_all(m, predict_full_field(m))


# unitarily diagonal rules, any dimension


def test_unitary_diagonal_validation(f3):
    for pairs in ([], [(1, 1), (1, 1)], [(1, 0)], [(1, 1)]):
        with pytest.raises(ValueError):
            predict_unitary_diagonal(f3, pairs)
    # eigenvalues are codes of F_9
    for c in (9, -1, True):
        with pytest.raises(ValueError, match="eigenvalue code must lie in"):
            predict_unitary_diagonal(f3, [(0, 1), (c, 1)])
    # a multiplicity is never truncated: 1.9 once claimed prop1d at n = 2
    for x in (1.9, True):
        with pytest.raises(ValueError, match="positive integers"):
            predict_unitary_diagonal(f3, [(0, x), (1, 1)])


def test_two_eigenvalues_with_multiplicity(f3):
    m = _diag(f3, (0, 1, 1))
    preds = predict_unitary_diagonal(f3, [(0, 1), (1, 2)])
    bases = _check_all(m, preds)
    assert "prop1c" in bases
    [p] = [p_ for p_ in preds if p_.basis == "prop1c"]
    assert p.target == (0, 1, 2)  # the whole F_3-line through the gap


def test_three_collinear_eigenvalues_decline_the_full_set(f3):
    # gaps 1 and 2 are F_3-proportional: the zero level is only their
    # line inside F_9, so no rule may promise all of F_9 here
    m = _diag(f3, (0, 1, 2))
    pairs = [(c, 1) for c in (0, 1, 2)]
    preds = predict_unitary_diagonal(f3, pairs)
    bases = _check_all(m, preds)
    assert "prop1a" not in bases
    assert num_k(m, 0).values == (0, 1, 2)
    [p] = [p_ for p_ in preds if p_.basis == "prop1b"]
    assert p.target is True


def test_three_spanning_eigenvalues_fill_the_zero_level(f3):
    m = _diag(f3, (0, 1, 3))
    pairs = [(c, 1) for c in (0, 1, 3)]
    preds = predict_unitary_diagonal(f3, pairs)
    bases = _check_all(m, preds)
    assert "prop1a" in bases
    [p] = [p_ for p_ in preds if p_.basis == "prop1b"]
    assert p.target is False


def test_zero_membership_ratio_table(f2, f3):
    # n = 3 distinct eigenvalues: 0 is attained iff the gap ratio sits
    # in the subfield; four or more distinct values always attain it
    for ctx, encs, expect in ((f2, (0, 1, 2), False), (f3, (0, 1, 2), True),
                              (f3, (0, 1, 3), False)):
        pairs = [(c, 1) for c in encs]
        [p] = [p_ for p_ in predict_unitary_diagonal(ctx, pairs)
               if p_.basis == "prop1b"]
        assert p.target is expect
        _check_all(_diag(ctx, encs), predict_unitary_diagonal(ctx, pairs))
    pairs4 = [(c, 1) for c in (0, 1, 2, 3)]
    [p] = [p_ for p_ in predict_unitary_diagonal(f3, pairs4)
           if p_.basis == "prop1b"]
    assert p.target is True
    _check_all(_diag(f3, (0, 1, 2, 3)), predict_unitary_diagonal(f3, pairs4))


# direct sums


def test_direct_sum_assembly(towers):
    rng = random.Random(89)
    for q in (2, 3):
        ctx = towers[q]
        for na, nb in ((1, 1), (1, 2), (2, 1), (2, 2)):
            a = _m(ctx, [[rng.randrange(ctx.q2) for _ in range(na)]
                         for _ in range(na)])
            b = _m(ctx, [[rng.randrange(ctx.q2) for _ in range(nb)]
                         for _ in range(nb)])
            _check_all(block_diag(a, b), predict_direct_sum(a, b))


def test_direct_sum_zero_membership_needs_a_shared_value(f3):
    # neither block attains 0 on its punctured zero level, yet the sum
    # does: both level-one ranges contain 4
    a = _m(f3, [[4]])
    b = _m(f3, [[0, 4], [7, 6]])
    preds = predict_direct_sum(a, b)
    member = next(p for p in preds if p.claim == CLAIM_MEMBER)
    assert member.target is True
    _check_all(block_diag(a, b), preds)


def test_direct_sum_refuses_blocks_of_different_contexts(towers):
    a, b = _m(towers[2], [[1]]), _m(towers[3], [[1]])
    with pytest.raises(ValueError, match="different field contexts"):
        predict_direct_sum(a, b)


# subfield rules


def test_three_mod_four_empties_the_plane_null_range(f3):
    m = _diag(f3, (0, 1))
    preds = predict_subfield(m, (0,))
    bases = _check_all(m, preds)
    assert "prop5.i" in bases


def test_even_q_trace_dichotomy(f2):
    nil = _m(f2, [[0, 1], [0, 0]])  # d1 + d2 + s12 = 1
    preds = predict_subfield(nil, (0,))
    _check_all(nil, preds)
    assert (KIND_NUM0_PRIME_SUBFIELD, (1,)) in {
        (p.scope, p.target) for p in preds if p.basis == "prop5.ii"}

    bal = _m(f2, [[1, 1], [0, 0]])  # d1 + d2 + s12 = 0
    preds = predict_subfield(bal, (0,))
    _check_all(bal, preds)
    assert (KIND_NUM0_PRIME_SUBFIELD, (0,)) in {
        (p.scope, p.target) for p in preds if p.basis == "prop5.ii"}


def test_even_q_full_level_for_split_diagonal(f2):
    m = _diag(f2, (0, 1))
    preds = predict_subfield(m, (1,))
    _check_all(m, preds)
    assert any(p.basis == "prop5.ii" and p.claim == CLAIM_EXACT_SET
               and p.target == (0, 1) for p in preds)


def test_one_mod_four_plane_rules(f5):
    crossed = _m(f5, [[0, 1], [1, 0]])  # s12 != 0
    preds = predict_subfield(crossed, (0,))
    _check_all(crossed, preds)
    assert any(p.basis == "prop5.iii1" and p.nonzero_only for p in preds)

    split = _diag(f5, (0, 1))  # s12 = 0, d1 != d2
    preds = predict_subfield(split, (0,))
    _check_all(split, preds)
    cards = {(p.scope, p.target) for p in preds if p.basis == "prop5.iii2"}
    assert (KIND_NUM_K_SUBFIELD, 3) in cards
    assert (KIND_NUM0_PRIME_SUBFIELD, 2) in cards
    preds = predict_subfield(split, (2,))
    _check_all(split, preds)
    assert any(p.basis == "remark10" and p.target == 3 for p in preds)


def test_even_q_balance_dichotomy(f2, f4):
    assert "prop6.b" in _check_all(
        HermMatrix.identity(f2, 2),
        predict_subfield(HermMatrix.identity(f2, 2), (0,)))
    m3 = _m(f4, [[1, 1, 0], [0, 0, 1], [0, 0, 2]])
    preds = predict_subfield(m3, (0,))
    bases = _check_all(m3, preds)
    assert "prop6.c" in bases
    m4 = _diag(f2, (0, 1, 1, 0))
    preds = predict_subfield(m4, (0,))
    bases = _check_all(m4, preds)
    assert "prop6.c" in bases and "cor2" in bases


def test_scalar_matrix_fiber_and_null_range(f3, f5):
    two_i = HermMatrix.scalar(f3, 2, 2)
    preds = predict_subfield(two_i, (0,))
    _check_all(two_i, preds)
    assert any(p.basis == "prop7" and p.claim == CLAIM_EMPTY for p in preds)

    scal5 = HermMatrix.scalar(f5, 2, 3)
    preds = predict_subfield(scal5, (0,))
    _check_all(scal5, preds)
    assert any(p.basis == "prop7" and p.scope == SCOPE_FIBER_ZERO
               and p.target == 9 for p in preds)
    assert any(p.basis == "prop7" and p.target == (0,) for p in preds)


def test_odd_dimension_attains_a_nonzero_value(f3):
    m = _diag(f3, (0, 1, 2))
    preds = predict_subfield(m, (0,))
    _check_all(m, preds)
    assert any(p.basis == "prop8" for p in preds)


def test_two_valued_diagonal_exact_sets(f3, f5):
    m5 = _diag(f5, (0, 1, 1))
    preds = predict_subfield(m5, (0,))
    _check_all(m5, preds)
    by_claim = {p.claim: p for p in preds if p.basis == "prop9"}
    assert by_claim[CLAIM_EXACT_CARD].target == 3
    assert by_claim[CLAIM_EXACT_SET].target == (0, 1, 4)
    assert by_claim[CLAIM_MEMBER].target is True

    m3 = _diag(f3, (0, 1, 1))
    preds = predict_subfield(m3, (0,))
    _check_all(m3, preds)
    member = next(p for p in preds if p.basis == "prop9"
                  and p.claim == CLAIM_MEMBER)
    assert member.target is False


def test_distinct_diagonal_bound_declines_the_collapsing_case(f3, f5):
    # q = 3, n = 3, three distinct diagonal values: every nonzero null
    # vector has all coordinates nonzero, squares are all 1, and the
    # range collapses to the singleton {d1+d2+d3}; the halved bound is
    # false there and must not be claimed
    m = _diag(f3, (0, 1, 2))
    assert all(p.basis != "prop10" for p in predict_subfield(m, (0,)))
    assert num_k_subfield(m, 0).values == (0,)

    repeated = _diag(f3, (0, 1, 1))
    preds = predict_subfield(repeated, (0,))
    assert any(p.basis == "prop10" for p in preds)
    _check_all(repeated, preds)

    wide5 = _diag(f5, (0, 1, 2))
    preds = predict_subfield(wide5, (0,))
    assert any(p.basis == "prop10" for p in preds)
    _check_all(wide5, preds)


def test_skew_triple_bound_declines_degenerate_forms(f3, f5):
    # row i = 0 pairs with j1 = 1, j2 = 2, but the triple's quadratic
    # form has alpha + gamma = 0 over q = 3: the bound fails at k = 1
    m = _m(f3, [[1, 2, 2], [1, 1, 1], [1, 0, 1]])
    for ke in range(3):
        assert all(p.basis != "prop11"
                   for p in predict_subfield(m, (ke,)))
    assert num_k_subfield(m, 1).cardinality == 1

    # q = 1 mod 4 with a perfect-square form: only square levels keep
    # the half bound; nonsquare levels drop to (q-1)/2 values
    deg = _m(f5, [[0, 0, 0], [0, 1, 4], [0, 0, 4]])
    for ke in range(5):
        preds = predict_subfield(deg, (ke,))
        fired = any(p.basis == "prop11" for p in preds)
        assert fired == (ke in (0, 1, 4))
        _check_all(deg, preds)
        assert num_k_subfield(deg, ke).cardinality \
            == (3 if ke in (0, 1, 4) else 2)

    sound = _diag(f3, (0, 1, 1))
    for ke in range(3):
        preds = predict_subfield(sound, (ke,))
        assert any(p.basis == "prop11" for p in preds)
        _check_all(sound, preds)


def _skew_triple_at(ctx, d, s, k):
    """prop11's hypothesis at one level, by its definition: some row i
    with symmetrized-zero partners j1 < j2 whose form is not zero, and
    which has alpha + gamma != 0, or q > 3 and a nonzero discriminant or
    a square level."""
    q, n = ctx.q, len(d)
    for i, j1, j2 in itertools.permutations(range(n), 3):
        if j1 > j2 or s[tuple(sorted((i, j1)))] or s[tuple(sorted((i, j2)))]:
            continue
        alpha, beta = ctx.q_sub(d[j1], d[i]), s[(j1, j2)]
        gamma = ctx.q_sub(d[j2], d[i])
        disc = ctx.q_sub(ctx.q_mul(beta, beta),
                         ctx.q_mul(4 % ctx.p, ctx.q_mul(alpha, gamma)))
        if (alpha, beta, gamma) != (0, 0, 0) and (
                ctx.q_add(alpha, gamma) or q > 3 and (
                    disc or ctx.q_is_square(k))):
            return True
    return False


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_skew_triples_are_scanned_once_for_all_levels(monkeypatch, towers,
                                                     q):
    ctx = towers[q]
    rng = random.Random(q)
    calls = []
    real = classify._bounded_skew_triples
    monkeypatch.setattr(classify, "_bounded_skew_triples",
                        lambda *a: calls.append(a) or real(*a))
    for n in (3, 4, 5):
        for _ in range(40):
            # sparse off-diagonal sums, so rows have zero partners
            m = _m(ctx, [[rng.randrange(q) if i == j or rng.random() < 0.3
                          else 0 for j in range(n)] for i in range(n)])
            calls.clear()
            preds = predict_subfield(m, range(q))
            assert len(calls) == 1
            d, sums = symmetrized(ctx, m.encs())
            assert sorted({p.k_enc for p in preds if p.basis == "prop11"}) \
                == [k for k in range(q)
                    if _skew_triple_at(ctx, d, dict(sums), k)], m


def test_one_mod_four_scalar_and_general_bounds(f5):
    scal = HermMatrix.scalar(f5, 3, 2)
    preds = predict_subfield(scal, (3,))
    _check_all(scal, preds)
    [p] = [p_ for p_ in preds if p_.basis == "cor4.i"
           and p_.scope == KIND_NUM_K_SUBFIELD]
    assert p.target == (f5.q_mul(3, 2),)

    m = _m(f5, [[0, 1], [2, 3]])
    preds = predict_subfield(m, (0,))
    _check_all(m, preds)
    assert any(p.basis == "cor4.ii" and p.nonzero_only for p in preds)


def test_odd_q_five_dimensions_attain_zero(f3):
    m = _diag(f3, (0, 1, 2, 0, 1))
    preds = predict_subfield(m, (0,))
    bases = _check_all(m, preds)
    assert "cor3" in bases


def test_subfield_sweep_never_contradicts(towers):
    rng = random.Random(97)
    for q in (2, 3, 4, 5):
        ctx = towers[q]
        for n in (2, 3):
            for _ in range(8):
                m = _m(ctx, [[rng.randrange(ctx.q) for _ in range(n)]
                             for _ in range(n)])
                for ke in range(ctx.q):
                    _check_all(m, predict_subfield(m, (ke,)))


def test_subfield_validation(f3):
    with pytest.raises(ValueError):
        predict_subfield(_m(f3, [[1]]), (0,))
    with pytest.raises(ValueError):
        predict_subfield(_m(f3, [[3, 0], [0, 1]]), (0,))
    with pytest.raises(ValueError):
        predict_subfield(_diag(f3, (0, 1)), (5,))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9])
def test_predict_subfield_over_all_levels_joins_the_single_levels(towers, q):
    ctx = towers[q]
    rng = random.Random(q)
    for n in (2, 3, 4):
        for _ in range(12):
            m = _m(ctx, [[rng.randrange(q) for _ in range(n)]
                         for _ in range(n)])
            joined = [p for k in range(q) for p in predict_subfield(m, (k,))]
            assert predict_subfield(m, range(q)) == joined, m
            # any order of levels, a generator included, is kept
            assert predict_subfield(m, (k for k in range(q - 1, -1, -1))) == [
                p for k in range(q - 1, -1, -1)
                for p in predict_subfield(m, (k,))], m


@pytest.mark.parametrize("levels", [(0, 1, 3), (3, 0), (0, 2, True),
                                    (1, -1, 0), (0, 1, 2, 4)])
def test_predict_subfield_checks_every_level_before_predicting(
        monkeypatch, f3, levels):
    # a bad level anywhere in levels refuses the call before any rule
    # builds a prediction, even for the good levels before it
    scalar = _diag(f3, (1, 1, 1))
    assert predict_subfield(scalar, (0,)) and predict_subfield(scalar, ()) == []
    built = []
    monkeypatch.setattr(classify, "Prediction", lambda *a: built.append(a))
    with pytest.raises(ValueError, match="level code must lie in F_q"):
        predict_subfield(scalar, levels)
    assert built == []


def _class_rep(m):
    """Diagonal kept, m_ij + m_ji above the diagonal, zeros below."""
    ctx, rows, n = m.ctx, m.encs(), m.n
    return _m(ctx, [[rows[i][i] if i == j
                     else ctx.q_add(rows[i][j], rows[j][i]) if i < j else 0
                     for j in range(n)] for i in range(n)])


def test_subfield_data_depends_only_on_the_symmetrized_class(towers):
    # the invariance the subfield sweeps rely on to evaluate one matrix
    # per symmetrized class: the oracle on M agrees with the engines and
    # the rules on M's class representative
    cases = [(towers[q], encs) for q in (2, 3, 4, 5)
             for encs in itertools.product(range(q), repeat=4)]
    ctx = towers[3]
    rng = random.Random(41)
    cases += [(ctx, [rng.randrange(3) for _ in range(9)]) for _ in range(30)]
    for ctx, flat in cases:
        n = 2 if len(flat) == 4 else 3
        m = _m(ctx, [flat[i * n:(i + 1) * n] for i in range(n)])
        rep = _class_rep(m)
        assert symmetrized(ctx, m.encs()) == symmetrized(ctx, rep.encs())
        for k in range(ctx.q):
            assert (range_naive(m, KIND_NUM_K_SUBFIELD, k)
                    == num_k_subfield(rep, k)), (m, k)
            assert (predict_subfield(m, (k,))
                    == predict_subfield(rep, (k,))), (m, k)
        assert (range_naive(m, KIND_NUM0_PRIME_SUBFIELD, 0)
                == num0_prime_subfield(rep)), m
        assert fiber_table(m) == fiber_table(rep), m


def _level0_values(ctx, rows):
    m = _m(ctx, rows)
    return num_k(m, 0).values, num0_prime(m).values


def _assert_level0_shared_by_class(ctx, rows_seq):
    """Every matrix has the level-0 range values of the first matrix of
    its null class; returns the number of classes met."""
    first = {}
    for rows in rows_seq:
        got = _level0_values(ctx, rows)
        assert first.setdefault(null_class(ctx, rows), got) == got, rows
    return len(first)


@pytest.mark.parametrize("q", (2, 3, 4, 5))
def test_null_class_splits_matrices_as_the_key_by_cases(towers, q):
    # each key determines the other on every (m11, m12, m21), with
    # m22 = 0, which meets every class, and with a seeded m22
    ctx = towers[q]
    rng = random.Random(q)
    one, by_cases = {}, {}
    for a, b, c in itertools.product(range(ctx.q2), repeat=3):
        for d in (0, rng.randrange(ctx.q2)):
            rows = ((a, b), (c, d))
            key, old = null_class(ctx, rows), null_class_by_cases(ctx, rows)
            assert one.setdefault(key, old) == old, rows
            assert by_cases.setdefault(old, key) == key, rows
    assert len(one) == q ** 3 * (q * q - q + 1)


@pytest.mark.parametrize("q", (2, 3))
def test_level0_ranges_depend_only_on_the_null_class(towers, q):
    # the invariance full-field sweeps rely on to share level-0 ranges,
    # on every matrix of the space; the key takes q^3 (q^2 - q + 1) values
    ctx = towers[q]
    spaces = itertools.product(range(ctx.q2), repeat=4)
    classes = _assert_level0_shared_by_class(
        ctx, ((e[0:2], e[2:4]) for e in spaces))
    assert classes == q ** 3 * (q * q - q + 1)


@pytest.mark.parametrize("q", (4, 5))
def test_level0_ranges_depend_only_on_the_null_class_sampled(towers, q):
    ctx = towers[q]
    rng = random.Random(q)
    draws = [tuple(tuple(rng.randrange(ctx.q2) for _ in range(2))
                   for _ in range(2)) for _ in range(6000)]
    assert _assert_level0_shared_by_class(ctx, draws) < len(draws)


# verdict semantics and the fiber formula


def test_scalar_fiber_formula_frozen_table():
    expect = {(2, 2): 2, (3, 2): 1, (4, 2): 4, (5, 2): 9, (7, 2): 1,
              (9, 2): 17, (2, 3): 4, (3, 3): 9, (3, 4): 33}
    for (q, n), count in expect.items():
        assert scalar_fiber_formula(q, n) == count
    with pytest.raises(ValueError):
        scalar_fiber_formula(3, 1)


def test_scalar_fiber_formula_matches_enumeration(towers):
    for q, n in ((2, 2), (3, 2), (5, 2), (7, 2), (9, 2), (2, 3), (3, 3),
                 (3, 4)):
        ctx = towers[q]
        ident = HermMatrix.identity(ctx, n)
        assert fiber_count(ident, 0).count == scalar_fiber_formula(q, n)


# One case per claim shape, at q = 3: (name, claim, target, nonzero_only,
# values where the claim holds, values where it fails).  The expected
# verdicts were recorded from the previous verdict ladder.  A sampled
# range gets no verdict: check_prediction refuses it.
_VERDICT_CASES = (
    ("exact_set", CLAIM_EXACT_SET, (0, 2, 5), False, (0, 2, 5), (0, 2)),
    ("exact_set_outside", CLAIM_EXACT_SET, (0, 2, 5), False, (0, 2, 5),
     (0, 7)),
    ("exact_card", CLAIM_EXACT_CARD, 3, False, (0, 2, 5), (0, 2)),
    ("exact_card_over", CLAIM_EXACT_CARD, 2, False, (0, 2), (0, 2, 5)),
    ("lower_bound", CLAIM_LOWER_BOUND, 3, False, (0, 2, 5), (0, 2)),
    ("lower_bound_nonzero", CLAIM_LOWER_BOUND, 2, True, (0, 2, 5), (0, 2)),
    ("upper_bound", CLAIM_UPPER_BOUND, 2, False, (0, 2), (0, 2, 5)),
    ("member_in", CLAIM_MEMBER, True, False, (0, 2, 5), (2, 5)),
    ("member_out", CLAIM_MEMBER, False, False, (2, 5), (0, 2, 5)),
    ("empty", CLAIM_EMPTY, None, False, (), (2,)),
    ("superset", CLAIM_SUPERSET, (2, 5), False, (0, 2, 5), (0, 2)),
    ("line", CLAIM_LINE, None, False, (0, 1, 2), (0, 2, 5)),
    ("line_no_zero", CLAIM_LINE, None, False, (0, 1, 2), (2, 5)),
)


@pytest.mark.parametrize("holds", (True, False), ids=("holds", "fails"))
@pytest.mark.parametrize("mode", (EXHAUSTIVE, SAMPLED))
@pytest.mark.parametrize("case", _VERDICT_CASES, ids=lambda c: c[0])
def test_verdict_table(f3, case, mode, holds):
    _, claim, target, nonzero_only, good, bad = case
    values = good if holds else bad
    obs = RangeSet(kind=KIND_NUM_K, k_enc=0, values=values, mode=mode,
                   witness_count=len(values), ctx=f3)
    pred = Prediction("x", KIND_NUM_K, 0, claim, target, nonzero_only)
    if mode == EXHAUSTIVE:
        assert check_prediction(pred, obs) == (PASS if holds else FAIL)
    else:
        with pytest.raises(ValueError,
                           match="needs an exhaustive range, got sampled"):
            check_prediction(pred, obs)


def test_verdict_pairing_is_strict(f3):
    obs = num_k(_diag(f3, (0, 1)), 0)
    wrong_scope = Prediction("x", KIND_NUM0_PRIME, 0, CLAIM_EMPTY)
    with pytest.raises(ValueError):
        check_prediction(wrong_scope, obs)
    wrong_level = Prediction("x", KIND_NUM_K, 1, CLAIM_EMPTY)
    with pytest.raises(ValueError):
        check_prediction(wrong_level, obs)
    fiber = fiber_count(_diag(f3, (0, 1)), 0)
    not_a_card = Prediction("x", SCOPE_FIBER_ZERO, 0, CLAIM_MEMBER, True)
    with pytest.raises(ValueError):
        check_prediction(not_a_card, fiber)
    not_a_fiber = Prediction("x", KIND_NUM_K, 0, CLAIM_EXACT_CARD, 1)
    with pytest.raises(ValueError, match="does not describe this fiber"):
        check_prediction(not_a_fiber, fiber)
    with pytest.raises(ValueError, match="cannot check against tuple"):
        check_prediction(wrong_scope, obs.values)
    unknown_claim = Prediction("x", KIND_NUM_K, 0, "values_in_subfield", True)
    with pytest.raises(ValueError, match="unknown claim 'values_in_subfield'"):
        check_prediction(unknown_claim, obs)


# payload types of every predictor


_SET_CLAIMS = (CLAIM_EXACT_SET, CLAIM_SUPERSET)
_INT_CLAIMS = (CLAIM_EXACT_CARD, CLAIM_LOWER_BOUND, CLAIM_UPPER_BOUND)


def _assert_payload(ctx, pred):
    claim, target = pred.claim, pred.target
    if claim in _SET_CLAIMS:
        assert type(target) is tuple, pred
        assert all(type(v) is int for v in target), pred
        assert list(target) == sorted(set(target)), pred
        assert all(0 <= v < ctx.q2 for v in target), pred
    elif claim in _INT_CLAIMS:
        assert type(target) is int, pred
    elif claim == CLAIM_MEMBER:
        assert type(target) is bool, pred
    else:
        assert claim in (CLAIM_EMPTY, CLAIM_LINE), pred
        assert target is None, pred
    assert not pred.nonzero_only or claim == CLAIM_LOWER_BOUND, pred


def test_prediction_payload_types(towers, f3):
    claims = set()

    def check(ctx, preds):
        for pred in preds:
            _assert_payload(ctx, pred)
            claims.add(pred.claim)

    for q in (2, 3):
        ctx = towers[q]
        for encs in itertools.product(range(ctx.q2), repeat=4):
            check(ctx, predict_full_field(_m(ctx, [encs[0:2], encs[2:4]])))
    for q in (2, 3, 4, 5):
        ctx = towers[q]
        for encs in itertools.product(range(ctx.q), repeat=4):
            m = _m(ctx, [encs[0:2], encs[2:4]])
            for ke in range(ctx.q):
                check(ctx, predict_subfield(m, (ke,)))
    rng = random.Random(101)
    for q in (2, 3, 4, 5):
        ctx = towers[q]
        for _ in range(20):
            m = _m(ctx, [[rng.randrange(ctx.q) for _ in range(3)]
                         for _ in range(3)])
            for ke in range(ctx.q):
                check(ctx, predict_subfield(m, (ke,)))
    for ctx, encs in ((f3, (0, 1, 2)), (f3, (0, 1, 3)), (f3, (0, 1, 2, 3)),
                      (towers[2], (0, 1, 2))):
        check(ctx, predict_unitary_diagonal(
            ctx, [(c, 1) for c in encs]))
    check(f3, predict_unitary_diagonal(f3, [(0, 1), (1, 2)]))
    check(f3, predict_unitary_diagonal(f3, [(1, 2)]))
    for q in (2, 3):
        ctx = towers[q]
        for na, nb in ((1, 1), (1, 2), (2, 1), (2, 2)):
            a = _m(ctx, [[rng.randrange(ctx.q2) for _ in range(na)]
                         for _ in range(na)])
            b = _m(ctx, [[rng.randrange(ctx.q2) for _ in range(nb)]
                         for _ in range(nb)])
            check(ctx, predict_direct_sum(a, b))
    check(f3, predict_direct_sum(_m(f3, [[4]]), _m(f3, [[0, 4], [7, 6]])))
    assert claims == set(_SET_CLAIMS + _INT_CLAIMS) | {
        CLAIM_MEMBER, CLAIM_EMPTY, CLAIM_LINE}
