"""Closed-form predictions about ranges, cross-checkable against brute force.

Each rule inspects a matrix's eigenstructure or coefficient pattern and,
when its hypothesis holds, emits Prediction records: exact sets, exact
cardinalities, bounds, memberships, or line shapes, each tagged with the
rule that produced it.  check_prediction evaluates one record's claim
on an exhaustive RangeSet (or a fiber count) and returns a verdict, so a
sweep over a matrix space validates the whole rule table mechanically.

Rules never guess: a matrix matching no hypothesis gets only the
universal facts.  All hypotheses on subfield ranges are evaluated on the
symmetrized data (diagonal entries and the sums m_ij + m_ji), which is
the only input those ranges depend on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .fields import FieldCtx
from .hermitian import DEFAULT_CAPACITY, HermMatrix, check_level, inner_encs
from .ranges import (KIND_NUM0_PRIME, KIND_NUM0_PRIME_SUBFIELD, KIND_NUM_K,
                     KIND_NUM_K_SUBFIELD, FiberCount, RangeSet, num0_prime,
                     num_k)

TWO_DISTINCT = "two_distinct_in_Fq2"
REPEATED = "repeated"
IRREDUCIBLE = "irreducible_char_poly"

CLAIM_EXACT_SET = "exact_set"
CLAIM_EXACT_CARD = "exact_card"
CLAIM_LOWER_BOUND = "lower_bound"
CLAIM_UPPER_BOUND = "upper_bound"
CLAIM_MEMBER = "membership"
CLAIM_EMPTY = "empty"
CLAIM_SUPERSET = "superset"
CLAIM_LINE = "line"

SCOPE_FIBER_ZERO = "fiber_zero"

PASS = "pass"
FAIL = "fail"
# a report summary key only: check_prediction returns pass or fail, so
# every sweep counts 0 inapplicable checks
INAPPLICABLE = "inapplicable"


@dataclass(frozen=True)
class EigenData2:
    """Eigenstructure of a 2 by 2 matrix over F_{q^2}, held as codes.

    One representative eigenvector (a code pair) is kept per eigenvalue,
    eigenvalues sorted by code; isotropic flags record whether its
    self-pairing vanishes.  When the characteristic polynomial has no
    root in F_{q^2} all tuples are empty.
    """

    status: str
    eigenvalue_encs: tuple[int, ...]
    eigenvector_encs: tuple[tuple[int, int], ...]
    isotropic: tuple[bool, ...]
    eigenspace_dims: tuple[int, ...]
    ctx: FieldCtx = field(repr=False)

    @property
    def orthogonal_eigenbasis(self) -> bool:
        """Two distinct eigenvalues whose eigenvectors are non-isotropic
        and orthogonal: the Gram test for unitary diagonalizability."""
        if self.status != TWO_DISTINCT or any(self.isotropic):
            return False
        u1, u2 = self.eigenvector_encs
        return inner_encs(self.ctx, u1, u2) == 0


@dataclass(frozen=True)
class Prediction:
    """One checkable claim about one range, tagged by its source rule.

    scope names the range kind (or fiber_zero for the null-fiber count)
    and k_enc the level.  target is the claim's one datum: the sorted
    value codes for exact_set and superset, an int for exact_card,
    lower_bound and upper_bound, a bool (0 is in the range) for
    membership, and None for empty and for line, a full F_q-line
    through 0.  nonzero_only makes a lower bound count only the nonzero
    values.
    """

    basis: str
    scope: str
    k_enc: int
    claim: str
    target: tuple[int, ...] | int | bool | None = None
    nonzero_only: bool = False


def _kernel_vector(ctx: FieldCtx, rows) -> tuple[int, int] | None:
    """Kernel direction of a singular 2x2 (code rows); None for the zero
    matrix."""
    (a, b), (c, d) = rows
    if a or b:
        return (b, ctx.neg_enc(a))
    if c or d:
        return (d, ctx.neg_enc(c))
    return None


def eigen2(m: HermMatrix) -> EigenData2:
    """Eigenstructure from the closed-form roots of the characteristic
    polynomial x^2 - tr x + det."""
    if m.n != 2:
        raise ValueError(f"eigen decomposition implemented for n=2, got n={m.n}")
    ctx = m.ctx
    (a, b), (c, d) = m.encs()
    tr = ctx.add_enc(a, d)
    det = ctx.sub_enc(ctx.mul_enc(a, d), ctx.mul_enc(b, c))
    roots = ctx.quadratic_roots_enc(ctx.neg_enc(tr), det)
    if not roots:
        return EigenData2(IRREDUCIBLE, (), (), (), (), ctx)

    vectors, flags, dims = [], [], []
    for r in roots:
        kv = _kernel_vector(ctx, ((ctx.sub_enc(a, r), b), (c, ctx.sub_enc(d, r))))
        vec, dim = ((1, 0), 2) if kv is None else (kv, 1)
        vectors.append(vec)
        # <v, v> = N(v0) + N(v1), a sum inside F_q
        flags.append(ctx.q_add(ctx.norm_enc(vec[0]), ctx.norm_enc(vec[1])) == 0)
        dims.append(dim)
    status = TWO_DISTINCT if len(roots) == 2 else REPEATED
    return EigenData2(status, roots, tuple(vectors), tuple(flags),
                      tuple(dims), ctx)


def _line_values(ctx: FieldCtx, direction: int, full: bool) -> tuple[int, ...]:
    start = 0 if full else 1
    return tuple(sorted(ctx.mul_enc(t, direction)
                        for t in range(start, ctx.q)))


def _half_up(x: int) -> int:
    return (x + 1) // 2


def _level0_header(q: int, scalar: bool) -> list[Prediction]:
    """The universal level-0 facts: 0 is in the level-0 range, and a
    scalar matrix has null-range {0} while any other matrix has at
    least ceil((q+1)/2) level-0 values."""
    zero = Prediction("zero-in-num0", KIND_NUM_K, 0, CLAIM_MEMBER, True)
    if scalar:
        return [zero, Prediction("remark4", KIND_NUM0_PRIME, 0,
                                 CLAIM_EXACT_SET, (0,))]
    return [zero, Prediction("cor1", KIND_NUM_K, 0, CLAIM_LOWER_BOUND,
                             _half_up(q + 1))]


def predict_full_field(m: HermMatrix) -> list[Prediction]:
    """All applicable full-field rules for a 2 by 2 matrix."""
    if m.n != 2:
        raise ValueError(f"full-field rules cover n=2, got n={m.n}")
    ctx = m.ctx
    q, q2 = ctx.q, ctx.q2

    preds = _level0_header(q, m.is_scalar)
    if m.is_scalar:
        return preds

    e = eigen2(m)
    if e.orthogonal_eigenbasis:
        # the header above, then prop1d on the two simple eigenvalues
        preds = predict_unitary_diagonal(
            ctx, [(c, 1) for c in e.eigenvalue_encs])
    elif e.status == TWO_DISTINCT and all(e.isotropic):
        preds.append(Prediction("prop3", KIND_NUM0_PRIME, 0, CLAIM_LINE))
    elif (e.status == REPEATED and e.eigenspace_dims == (1,)
          and not e.isotropic[0]):
        even = q % 2 == 0
        preds.append(Prediction("prop2", KIND_NUM0_PRIME, 0, CLAIM_MEMBER, False))
        preds.append(Prediction("prop2", KIND_NUM0_PRIME, 0, CLAIM_EXACT_CARD,
                                q2 - 1 if even else (q2 - 1) // 2))
        if even:
            preds.append(Prediction("prop2", KIND_NUM0_PRIME, 0,
                                    CLAIM_EXACT_SET, tuple(range(1, q2))))

    (_, m12), (m21, _) = m.encs()
    if m12 and m21:
        preds.append(Prediction("prop4.i", KIND_NUM0_PRIME, 0,
                                CLAIM_LOWER_BOUND, _half_up(q + 1)))
        # N(-m12 / m21) != 1, as N(-1) = 1 and the norm is multiplicative
        if ctx.norm_enc(m12) != ctx.norm_enc(m21):
            preds.append(Prediction("prop4.ii", KIND_NUM0_PRIME, 0,
                                    CLAIM_LOWER_BOUND, q + 1))
    return preds


def predict_unitary_diagonal(ctx: FieldCtx,
                             eigen_pairs) -> list[Prediction]:
    """Rules for a matrix known unitarily equivalent to a diagonal one.

    eigen_pairs lists (eigenvalue code, multiplicity); eigenvalues must
    be distinct codes of F_{q^2} and multiplicities positive integers.
    Works for any dimension n = sum of multiplicities >= 2.
    """
    pairs = [(c, x) for c, x in eigen_pairs]
    if not pairs:
        raise ValueError("at least one eigenvalue required")
    for c, x in pairs:
        if type(c) is not int or not 0 <= c < ctx.q2:
            raise ValueError(f"eigenvalue code must lie in [0, {ctx.q2}), "
                             f"got {c!r}")
        if type(x) is not int or x < 1:
            raise ValueError(f"multiplicities must be positive integers, "
                             f"got {x!r}")
    encs = [c for c, _ in pairs]
    if len(set(encs)) != len(encs):
        raise ValueError("eigenvalues must be distinct")
    n = sum(x for _, x in pairs)
    if n < 2:
        raise ValueError("dimension must be at least 2")
    q, q2 = ctx.q, ctx.q2
    kdist = len(pairs)

    preds = _level0_header(q, kdist == 1)
    if kdist == 1:
        return preds
    if kdist == 2:
        # n = 2 punctures the line through the eigenvalue gap (prop1d);
        # a repeated eigenvalue fills it (prop1c)
        diff = ctx.sub_enc(encs[1], encs[0])
        basis = "prop1d" if n == 2 else "prop1c"
        preds.append(Prediction(basis, KIND_NUM0_PRIME, 0, CLAIM_EXACT_SET,
                                _line_values(ctx, diff, n > 2)))
        return preds

    # Three or more distinct eigenvalues fill the zero level, provided
    # some pair of eigenvalue gaps is F_q-independent.  When every gap
    # lies on one F_q-line the filled set is only that line (witness:
    # diag(0, 1, 2) for q = 3), so no exact-set claim is made.
    # a gap ratio lies in F_q exactly when its two gaps are F_q-proportional
    c0, gap = encs[0], ctx.sub_enc(encs[1], encs[0])
    ratios = [ctx.div_enc(ctx.sub_enc(c, c0), gap) for c in encs[2:]]
    if any(r >= q for r in ratios):
        preds.append(Prediction("prop1a", KIND_NUM_K, 0, CLAIM_EXACT_SET,
                                tuple(range(q2))))
    if kdist >= 4 or n >= 4:
        zero_in = True
    else:
        # n = kdist = 3: decided by whether the two eigenvalue gaps are
        # F_q-proportional
        zero_in = ratios[0] < q
    preds.append(Prediction("prop1b", KIND_NUM0_PRIME, 0, CLAIM_MEMBER,
                            zero_in))
    return preds


def predict_direct_sum(a: HermMatrix, b: HermMatrix, *,
                       capacity: int = DEFAULT_CAPACITY) -> list[Prediction]:
    """Assemble the zero-level range of a block-diagonal matrix.

    The exhaustive level-one and level-zero ranges of the two blocks,
    computed here within capacity, give the exact zero-level set of the
    direct sum and the zero-membership status of its punctured version.
    """
    ctx = a.ctx
    if b.ctx is not ctx:
        raise ValueError("blocks belong to different field contexts")
    num1_a, num1_b, num0_a, num0_b = (num_k(blk, k, capacity=capacity)
                                      for k in (1, 0) for blk in (a, b))

    assembled = {ctx.add_enc(x, y)
                 for x in num0_a.values for y in num0_b.values}
    for k in range(1, ctx.q):
        for x in num1_a.values:
            for y in num1_b.values:
                assembled.add(ctx.mul_enc(k, ctx.sub_enc(x, y)))

    # besides a block's own null range, 0 = k*(x - y) with k != 0 needs a
    # level-one value shared by both blocks, mirroring the assembled union
    zero_in = (any(blk.n >= 2 and 0 in num0_prime(blk, capacity=capacity).values
                   for blk in (a, b))
               or bool(set(num1_a.values) & set(num1_b.values)))

    return [
        Prediction("lemma2", KIND_NUM_K, 0, CLAIM_EXACT_SET,
                   tuple(sorted(assembled))),
        Prediction("lemma2", KIND_NUM0_PRIME, 0, CLAIM_MEMBER, zero_in),
    ]


def symmetrized(ctx: FieldCtx, rows):
    """Diagonal codes and the off-diagonal sums m_ij + m_ji of F_q code rows.

    Returns the hashable pair (diag, sums), sums holding ((i, j), sum)
    for i < j in row-major order.  Subfield ranges, fibers and rules
    depend on a matrix only through this pair, so it names the matrix's
    class for them.
    """
    n = len(rows)
    diag = tuple(rows[i][i] for i in range(n))
    sums = tuple(((i, j), ctx.q_add(rows[i][j], rows[j][i]))
                 for i in range(n) for j in range(i + 1, n))
    return diag, sums


def affine_subfield_classes(ctx: FieldCtx, key) -> list:
    """Keys of the subfield classes of a I + c M, for a in F_q and c in
    F_q^*, given the key ((d1, d2), s) of a 2 by 2 matrix M: its diagonal
    codes and m12 + m21.  Each key is listed once.

    <u, u> = u1^2 + u2^2 for u in F_q^2, so
    <u, (aI + cM) u> = a <u, u> + c <u, M u> and
    Num_k(aI + cM)_q = a k + c Num_k(M)_q at every level k: an affine
    bijection of F_q, which keeps each range's size; the key of aI + cM
    is ((a + c d1, a + c d2), c s).  The zero matrix and the nonzero
    scalars keep to themselves, as prop7 reads m11 != 0.  So the q^3
    keys fall into q + 3 orbits: the zero matrix, the nonzero scalars,
    and one orbit of q (q - 1) keys for each point [d1 - d2 : s] of
    P^1(F_q).
    """
    (d1, d2), s = key
    add, mul = ctx.q_add, ctx.q_mul
    zero = ((0, 0), 0)
    images = (((add(a, mul(c, d1)), add(a, mul(c, d2))), mul(c, s))
              for c in range(1, ctx.q) for a in range(ctx.q))
    return list(dict.fromkeys(k for k in images
                              if (k == zero) == (key == zero)))


# the range kinds a null class determines, both at level 0 only
NULL_CLASS_KINDS = (KIND_NUM_K, KIND_NUM0_PRIME)


def null_class(ctx: FieldCtx, rows):
    """Key of the level-0 ranges (NULL_CLASS_KINDS) and of the full-field
    predictions of a 2 by 2 matrix, given as code rows.

    On the null cone <u, (M + aI) u> = <u, M u> + a <u, u> = <u, M u>,
    and conjugating by the unitary diag(1, mu), N(mu) = 1, maps the cone
    onto itself while sending (m12, m21) to (m12 mu, m21 mu^q).  So
    Num_0(M) and the null-range depend on M only through the key
    (m11 - m22, N(m12), N(m21), m12 m21): the orbit of (m12, m21) under
    the unit circle.  The third entry is redundant when m12 != 0
    (N(m21) = N(m12 m21) / N(m12)) and the fourth when m12 = 0 (it is
    0), so one formula serves every matrix.  There are
    q^3 (q^2 - q + 1) keys.  Both operations also preserve every
    hypothesis predict_full_field reads (scalarity, the eigenvalue gap up
    to sign, eigenvector isotropy and orthogonality, eigenspace
    dimensions, whether m12 m21 != 0, and whether N(m12) = N(m21)), so
    its ordered predictions are functions of the key too.
    """
    (a, b), (c, d) = rows
    norm = ctx.norm_enc
    return ctx.sub_enc(a, d), norm(b), norm(c), ctx.mul_enc(b, c)


# claim types whose verdict on a range Num stands on lam Num, lam != 0,
# once a target set is scaled by lam: exact and superset sets scale, while
# sizes, bounds, emptiness, F_q-lines through 0 and membership of 0 stay
SCALE_COVARIANT_CLAIMS = (CLAIM_EXACT_SET, CLAIM_SUPERSET, CLAIM_EXACT_CARD,
                          CLAIM_LOWER_BOUND, CLAIM_UPPER_BOUND, CLAIM_EMPTY,
                          CLAIM_LINE, CLAIM_MEMBER)


def scaled_null_classes(ctx: FieldCtx, key) -> list:
    """Null-class keys of lam M for the codes lam = 1, ..., q^2 - 1, in
    that order, given the key of M.

    lam M keeps the null cone and <u, lam M u> = lam <u, M u>, so its
    level-0 ranges are lam times those of M; its key is
    (lam d, N(lam) N(m12), N(lam) N(m21), lam^2 m12 m21).  Scaling also
    keeps every hypothesis predict_full_field reads, with the eigenvalue
    gap scaled by lam.
    """
    d, nb, nc, x = key
    mul, norm, q_mul = ctx.mul_enc, ctx.norm_enc, ctx.q_mul
    return [(mul(lam, d), q_mul(norm(lam), nb), q_mul(norm(lam), nc),
             mul(mul(lam, lam), x)) for lam in range(1, ctx.q2)]


def predict_subfield(m: HermMatrix, levels) -> list[Prediction]:
    """All applicable subfield-range rules for M at each level code in
    levels, in their order; every level is checked before any rule runs.

    Claims about the punctured zero level are emitted only when k = 0,
    so levels = range(q) yields each claim exactly once.
    """
    ctx = m.ctx
    if m.n < 2:
        raise ValueError("subfield rules need dimension at least 2")
    if not m.has_subfield_coeffs:
        raise ValueError("subfield rules need a matrix with F_q entries")
    levels = tuple(levels)
    for k in levels:
        check_level(ctx, k)

    q, n = ctx.q, m.n
    d, sums = symmetrized(ctx, m.encs())
    s = dict(sums)
    qmod4 = q % 4
    all_s_zero = all(v == 0 for v in s.values())
    all_d_equal = all(x == d[0] for x in d)
    skew_every, skew_square = (_bounded_skew_triples(ctx, d, s)
                               if q % 2 == 1 and n >= 3 else (False, False))
    preds: list[Prediction] = []

    def emit(*args):
        preds.append(Prediction(*args))

    for k in levels:
        at_zero = k == 0
        if n == 2:
            d1, d2 = d
            s12 = s[(0, 1)]
            if qmod4 == 3 and at_zero:
                emit("prop5.i", KIND_NUM0_PRIME_SUBFIELD, 0, CLAIM_EMPTY)
            if q % 2 == 0:
                t = ctx.q_add(ctx.q_add(d1, d2), s12)
                if t != 0:
                    if at_zero:
                        emit("prop5.ii", KIND_NUM0_PRIME_SUBFIELD, 0,
                             CLAIM_EXACT_SET, tuple(range(1, q)))
                    else:
                        emit("prop5.ii", KIND_NUM_K_SUBFIELD, k,
                             CLAIM_LOWER_BOUND, q // 2)
                elif at_zero:
                    emit("prop5.ii", KIND_NUM0_PRIME_SUBFIELD, 0,
                         CLAIM_EXACT_SET, (0,))
                if s12 == 0 and d1 != d2 and not at_zero:
                    emit("prop5.ii", KIND_NUM_K_SUBFIELD, k, CLAIM_EXACT_SET,
                         tuple(range(q)))
            if qmod4 == 1:
                if s12 != 0 and at_zero:
                    emit("prop5.iii1", KIND_NUM_K_SUBFIELD, 0,
                         CLAIM_LOWER_BOUND, (q - 1) // 2, True)
                if s12 == 0 and d1 == d2:
                    emit("prop5.iii2", KIND_NUM_K_SUBFIELD, k, CLAIM_EXACT_SET,
                         (ctx.q_mul(k, d1),))
                    if at_zero:
                        emit("prop5.iii2", KIND_NUM0_PRIME_SUBFIELD, 0,
                             CLAIM_MEMBER, True)
                if s12 == 0 and d1 != d2:
                    if at_zero:
                        emit("prop5.iii2", KIND_NUM_K_SUBFIELD, 0,
                             CLAIM_EXACT_CARD, (q + 1) // 2)
                        emit("prop5.iii2", KIND_NUM0_PRIME_SUBFIELD, 0,
                             CLAIM_EXACT_CARD, (q - 1) // 2)
                    else:
                        emit("remark10", KIND_NUM_K_SUBFIELD, k,
                             CLAIM_UPPER_BOUND, (q + 1) // 2)

        if q % 2 == 0 and at_zero:
            emit("prop6.a", KIND_NUM0_PRIME_SUBFIELD, 0, CLAIM_LOWER_BOUND, 1)
            balanced = all(ctx.q_add(ctx.q_add(d[i], d[j]), s[(i, j)]) == 0
                           for (i, j) in s)
            if balanced:
                emit("prop6.b", KIND_NUM0_PRIME_SUBFIELD, 0, CLAIM_EXACT_SET,
                     (0,))
            elif n == 2:
                emit("prop6.c", KIND_NUM0_PRIME_SUBFIELD, 0, CLAIM_EXACT_SET,
                     tuple(range(1, q)))
            elif n == 3:
                emit("prop6.c", KIND_NUM0_PRIME_SUBFIELD, 0, CLAIM_SUPERSET,
                     tuple(range(1, q)))
            else:
                emit("prop6.c", KIND_NUM0_PRIME_SUBFIELD, 0, CLAIM_EXACT_SET,
                     tuple(range(q)))
            if n >= 4:
                emit("cor2", KIND_NUM0_PRIME_SUBFIELD, 0, CLAIM_MEMBER, True)

        if qmod4 == 1:
            if all_s_zero and all_d_equal:
                emit("cor4.i", KIND_NUM_K_SUBFIELD, k, CLAIM_EXACT_SET,
                     (ctx.q_mul(k, d[0]),))
                if at_zero:
                    emit("cor4.i", KIND_NUM0_PRIME_SUBFIELD, 0, CLAIM_MEMBER,
                         True)
            elif at_zero:
                emit("cor4.ii", KIND_NUM_K_SUBFIELD, 0, CLAIM_LOWER_BOUND,
                     (q - 1) // 2, True)

        if q % 2 == 1 and n >= 5 and at_zero:
            emit("cor3", KIND_NUM0_PRIME_SUBFIELD, 0, CLAIM_MEMBER, True)

        if all_s_zero and all_d_equal and d[0] != 0 and at_zero:
            emit("prop7", SCOPE_FIBER_ZERO, 0, CLAIM_EXACT_CARD,
                 scalar_fiber_formula(q, n))
            if q % 2 == 0 or n >= 3 or qmod4 == 1:
                emit("prop7", KIND_NUM0_PRIME_SUBFIELD, 0, CLAIM_EXACT_SET,
                     (0,))
            else:
                emit("prop7", KIND_NUM0_PRIME_SUBFIELD, 0, CLAIM_EMPTY)

        if qmod4 == 3 and n >= 3 and at_zero:
            emit("prop8", KIND_NUM0_PRIME_SUBFIELD, 0, CLAIM_LOWER_BOUND, 1)

        if (q % 2 == 1 and (n >= 3 or qmod4 == 1) and all_s_zero
                and d[0] != d[1] and all(x == d[1] for x in d[1:])):
            if at_zero:
                emit("prop9", KIND_NUM_K_SUBFIELD, 0, CLAIM_EXACT_CARD,
                     (q + 1) // 2)
                inv = ctx.q_inv(ctx.q_sub(d[1], d[0]))
                members = [0] + [
                    a for a in range(1, q)
                    if ctx.q_is_square(ctx.q_mul(ctx.q_neg(a), inv))]
                emit("prop9", KIND_NUM_K_SUBFIELD, 0, CLAIM_EXACT_SET,
                     tuple(sorted(members)))
                emit("prop9", KIND_NUM0_PRIME_SUBFIELD, 0, CLAIM_MEMBER,
                     n >= 4 or (n == 3 and qmod4 == 1))

        if (q % 2 == 1 and n >= 3 and all_s_zero and not all_d_equal
                and at_zero and not (q == 3 and n == 3 and len(set(d)) == 3)):
            # q=3 with three distinct diagonal values is excluded: there
            # the nonzero part of the level-0 cone forces every square to
            # 1, the values collapse to d1+d2+d3 = 0, and the bound fails
            emit("prop10", KIND_NUM_K_SUBFIELD, 0, CLAIM_LOWER_BOUND,
                 (q + 1) // 2)

        if skew_every or (skew_square and ctx.q_is_square(k)):
            emit("prop11", KIND_NUM_K_SUBFIELD, k, CLAIM_LOWER_BOUND,
                 (q + 1) // 2)

    return preds


def _bounded_skew_triples(ctx: FieldCtx, d, s) -> tuple[bool, bool]:
    """Whether some bounded skew triple exists at every level k, and
    whether one exists at every square level k.

    A bounded skew triple is a row i with two symmetrized-zero partners
    j1, j2 whose induced form alpha*x^2 + beta*xy + gamma*y^2
    (alpha = d_j1 - d_i, gamma = d_j2 - d_i, beta = s_j1j2) pins at least
    (q+1)/2 values at level k.  Only the squareness of k enters, so one
    scan serves every level.

    Two exceptional triple shapes are skipped because the plane form
    cannot always be lifted through the third coordinate:
      * square discriminant zero with gamma = -alpha (only possible for
        q = 1 mod 4): the form is a scaled square of a line L whose zero
        locus forces x3^2 = k, so value 0 drops out at nonsquare k and
        only (q-1)/2 values remain;
      * q = 3 with gamma = -alpha: the square classes are too thin and
        a level collapses to a single value.
    """
    n = len(d)
    q = ctx.q
    two = ctx.q_add(1, 1)
    four = ctx.q_add(two, two)

    def sv(i, j):
        return s[(i, j) if i < j else (j, i)]

    square = False
    for i in range(n):
        partners = [j for j in range(n) if j != i and sv(i, j) == 0]
        for a in range(len(partners)):
            for b in range(a + 1, len(partners)):
                j1, j2 = partners[a], partners[b]
                alpha, beta = ctx.q_sub(d[j1], d[i]), sv(j1, j2)
                gamma = ctx.q_sub(d[j2], d[i])
                if alpha == beta == gamma == 0:
                    continue
                if ctx.q_add(alpha, gamma) != 0:
                    return True, True
                if q == 3:
                    continue
                disc = ctx.q_sub(ctx.q_mul(beta, beta),
                                 ctx.q_mul(four, ctx.q_mul(alpha, gamma)))
                if disc != 0:
                    return True, True
                square = True
    return False, square


def scalar_fiber_formula(q: int, n: int) -> int:
    """Size of the zero fiber of the null map for a scalar matrix."""
    if n < 2:
        raise ValueError(f"dimension must be at least 2, got {n}")
    if q % 2 == 0:
        return q ** (n - 1)
    if n % 2 == 1:
        s = (n - 1) // 2
        return q ** (2 * s)
    s = n // 2
    if s % 2 == 0 or q % 4 == 1:
        return q ** (2 * s - 1) + q ** s - q ** (s - 1)
    return q ** (2 * s - 1) - q ** s + q ** (s - 1)


def _spanned_line(ctx: FieldCtx, values: set[int]) -> set[int] | None:
    """The F_q-line through 0 that a nonzero value of values spans, or
    None if there is none; any nonzero value of a line spans it."""
    o = next((v for v in values if v), None)
    return None if o is None else set(_line_values(ctx, o, True))


def _holds(pred: Prediction, ctx: FieldCtx, values: set[int]) -> bool:
    """Whether the claim is true of the observed value set."""
    claim, target = pred.claim, pred.target
    if claim == CLAIM_LOWER_BOUND:
        return len(values - {0} if pred.nonzero_only else values) >= target
    if claim == CLAIM_MEMBER:
        return (0 in values) == target
    if claim == CLAIM_EXACT_SET:
        return values == set(target)
    if claim == CLAIM_EXACT_CARD:
        return len(values) == target
    if claim == CLAIM_UPPER_BOUND:
        return len(values) <= target
    if claim == CLAIM_EMPTY:
        return not values
    if claim == CLAIM_SUPERSET:
        return set(target) <= values
    if claim == CLAIM_LINE:
        line = _spanned_line(ctx, values)
        return line is not None and values == line
    raise ValueError(f"unknown claim {claim!r}")


def check_prediction(pred: Prediction, observed) -> str:
    """Compare one claim against a computed range or fiber count: pass
    or fail.

    A sampled range raises ValueError (RangeSet.require_exhaustive): its
    values are a subset of the range, and claims are checked on whole
    ranges only.
    """
    if isinstance(observed, FiberCount):
        if pred.scope != SCOPE_FIBER_ZERO or observed.value != pred.k_enc:
            raise ValueError("prediction does not describe this fiber count")
        if pred.claim != CLAIM_EXACT_CARD:
            raise ValueError(f"fiber claims must be exact counts, got {pred.claim}")
        return PASS if observed.count == pred.target else FAIL

    if not isinstance(observed, RangeSet):
        raise ValueError(f"cannot check against {type(observed).__name__}")
    if pred.scope != observed.kind or pred.k_enc != observed.k_enc:
        raise ValueError(
            f"prediction for {pred.scope}@k={pred.k_enc} paired with "
            f"{observed.kind}@k={observed.k_enc}")

    observed.require_exhaustive()
    return PASS if _holds(pred, observed.ctx, set(observed.values)) else FAIL
