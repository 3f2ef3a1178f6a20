"""Oracles and matrix tools that only the tests use.

The oracles compute from the definitions alone what the engine computes
by its own route, so the tests can compare the two: naive_cone_encs
filters the whole space, range_naive evaluates the vectors it keeps, and
pairing with apply gives <u, M u> without Gram tuples, one add_enc,
mul_enc and frob_enc call at a time, so not through FieldCtx.dot_encs.
scaling_law_check compares the engine's ranges at every nonzero level k
with its level-1 range times k, a law no command checks.
dagger, matmul, is_unitary and random_unitary_2x2 build the unitary
conjugations some tests draw.  null_class_by_cases is the null-class key
written with a branch on m12, which the one-formula key must match.
"""

import itertools

from hermrange.hermitian import FULL_FIELD, HermMatrix
from hermrange.ranges import (EXHAUSTIVE, RangeSet, _check_range, _gram,
                              _values, num_k)


def naive_cone_encs(ctx, n, k_enc, mode, exclude_zero=False):
    """Oracle enumeration: filter the full space by the definition.

    Self-pairings are evaluated with generic power maps rather than the
    completion tables, so this path is independent of the one it checks.
    """
    space = ctx.q2 if mode == FULL_FIELD else ctx.q
    e = ctx.q + 1 if mode == FULL_FIELD else 2
    for u in itertools.product(range(space), repeat=n):
        acc = 0
        for x in u:
            acc = ctx.add_enc(acc, ctx.pow_enc(x, e))
        if acc == k_enc:
            if exclude_zero and not any(u):
                continue
            yield u


def range_naive(m, kind, k):
    """Full-space filter oracle for any of the range kinds."""
    ctx = m.ctx
    mode, null = _check_range(m, kind, k)
    values = _values(m, [_gram(ctx, u) for u in
                         naive_cone_encs(ctx, m.n, k, mode, null)])
    return RangeSet(kind=kind, k_enc=k, values=tuple(sorted(set(values))),
                    mode=EXHAUSTIVE, witness_count=len(values), ctx=ctx)


def scaling_law_check(m):
    """Whether the level-k range is the level-1 range scaled by k, for
    every nonzero k in F_q."""
    ctx = m.ctx
    base = num_k(m, 1).require_exhaustive()
    for k in range(1, ctx.q):
        scaled = tuple(sorted(ctx.mul_enc(k, v) for v in base.values))
        if num_k(m, k).require_exhaustive().values != scaled:
            return False
    return True


def dagger(m):
    """Conjugate transpose: entry (i, j) becomes m_ji^q."""
    frob = m.ctx.frob_enc
    return HermMatrix.from_encs(m.ctx, tuple(tuple(frob(e) for e in c)
                                             for c in zip(*m.encs())))


def pairing(ctx, u, v):
    """<u, v> = sum u_i^q v_i, for code tuples of equal length."""
    acc = 0
    for x, y in zip(u, v, strict=True):
        acc = ctx.add_enc(acc, ctx.mul_enc(ctx.frob_enc(x), y))
    return acc


def apply(m, v):
    """Codes of M v, for the code tuple v."""
    ctx, q2 = m.ctx, m.ctx.q2
    if len(v) != m.n or any(type(x) is not int or not 0 <= x < q2
                            for x in v):
        raise ValueError(f"vector {v!r} is not {m.n} codes below {q2}")
    out = []
    for row in m.encs():
        acc = 0
        for mij, x in zip(row, v):
            acc = ctx.add_enc(acc, ctx.mul_enc(mij, x))
        out.append(acc)
    return tuple(out)


def matmul(a, b):
    """The matrix product a b."""
    if b.ctx is not a.ctx or b.n != a.n:
        raise ValueError("matrix shapes or contexts differ")
    ctx = a.ctx
    cols = tuple(zip(*b.encs()))
    return HermMatrix.from_encs(ctx, tuple(
        tuple(ctx.dot_encs(list(enumerate(r)), cols)) for r in a.encs()))


def is_unitary(u):
    """Whether u^dagger u is the identity."""
    return (matmul(dagger(u), u).encs()
            == HermMatrix.identity(u.ctx, u.n).encs())


def random_unitary_2x2(ctx, rng):
    """Random 2 by 2 unitary built from a unit vector and its completion."""
    q2 = ctx.q2
    while True:
        a, b = rng.randrange(q2), rng.randrange(q2)
        s = ctx.q_add(ctx.norm_enc(a), ctx.norm_enc(b))
        if s != 0:
            break
    # rescale (a, b) to a unit vector; each nonzero norm value has q + 1
    # preimages
    t = ctx.norm_preimage_enc(ctx.q_inv(s), rng.randrange(ctx.q + 1))
    a, b = ctx.mul_enc(a, t), ctx.mul_enc(b, t)
    # orthogonal completion (-b^q s', a^q s') with s' of norm one
    sp = ctx.norm_preimage_enc(1, rng.randrange(ctx.q + 1))
    w0 = ctx.mul_enc(ctx.neg_enc(ctx.frob_enc(b)), sp)
    w1 = ctx.mul_enc(ctx.frob_enc(a), sp)
    u = HermMatrix.from_encs(ctx, ((a, w0), (b, w1)))
    if not is_unitary(u):
        raise RuntimeError("completed 2 by 2 matrix is not unitary")
    return u


def null_class_by_cases(ctx, rows):
    """The null-class key of a 2 by 2 matrix by cases on m12:
    (m11 - m22, N(m12), m12 m21), or (m11 - m22, 0, N(m21)) when
    m12 = 0."""
    (a, b), (c, d) = rows
    if b:
        return ctx.sub_enc(a, d), ctx.norm_enc(b), ctx.mul_enc(b, c)
    return ctx.sub_enc(a, d), 0, ctx.norm_enc(c)
