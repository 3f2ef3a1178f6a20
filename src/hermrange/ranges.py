"""Brute-force numerical ranges of a matrix against the Hermitian form.

For a level k in F_q, the range at k collects the pairings <u, M u> over
all vectors u with <u, u> = k.  The null-range variant runs over the
nonzero vectors of the zero level set, and the subfield variants
restrict coordinates to F_q, where both the level condition and the
evaluated pairing become quadratic forms over F_q.  RANGE_KINDS lists
the four kinds once; range_of computes any of them by name, and one
validator checks a matrix and a level against the table.

Exhaustive ranges are evaluated once per Gram class of the cone:
vectors with the same tuple u_i^q * u_j pair to the same value under
every matrix, and witness_count stays the number of vectors.  A
null-range reads the level-0 classes without the first, the zero
vector's, so both level-0 ranges share one cone.  One evaluator,
_values, turns Gram tuples into pairings for every path: exhaustive,
sampled and the fiber counts.  It hands the sums to the context's
dot_encs, which picks table or polynomial arithmetic, so no path here
depends on the arithmetic tier.

Exhaustive results are canonical: values are kept as sorted code lists,
so equal ranges serialize to identical bytes.  When the cone is too
large for the configured capacity, a sampling budget produces a witness
subset flagged as such; exact-set consumers must refuse those.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache

from .fields import FieldCtx
from .hermitian import (DEFAULT_CAPACITY, FULL_FIELD, SUBFIELD, CapacityError,
                        HermMatrix, check_level, cone_encs, cone_excess,
                        cone_upper_bound, count_text, draw_matrices,
                        sample_cone_encs)

KIND_NUM_K = "num_k"
KIND_NUM0_PRIME = "num0_prime"
KIND_NUM_K_SUBFIELD = "num_k_subfield"
KIND_NUM0_PRIME_SUBFIELD = "num0_prime_subfield"

# kind -> (coordinate mode, null-range).  Each kind is also the name of
# its entry point below.  range_of finds that in the module namespace,
# so an entry point replaced on the module (by a call recorder, say) is
# the one it reaches.
RANGE_KINDS = {
    KIND_NUM_K: (FULL_FIELD, False),
    KIND_NUM0_PRIME: (FULL_FIELD, True),
    KIND_NUM_K_SUBFIELD: (SUBFIELD, False),
    KIND_NUM0_PRIME_SUBFIELD: (SUBFIELD, True),
}
_ENTRY_POINTS = globals()

EXHAUSTIVE = "exhaustive"
SAMPLED = "sampled"


@dataclass(frozen=True)
class RangeSet:
    """A computed range: sorted value codes plus how they were obtained."""

    kind: str
    k_enc: int
    values: tuple[int, ...]
    mode: str
    witness_count: int = field(compare=False)
    ctx: FieldCtx = field(compare=False, repr=False)

    @property
    def cardinality(self) -> int:
        return len(self.values)

    def require_exhaustive(self) -> "RangeSet":
        if self.mode != EXHAUSTIVE:
            raise ValueError(f"operation needs an exhaustive range, got {self.mode}")
        return self

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "k": self.k_enc,
            "mode": self.mode,
            "witness_count": self.witness_count,
            "cardinality": self.cardinality,
            "values": list(self.values),
        }

    def csv_rows(self) -> list[tuple]:
        poly = self.ctx.poly_str
        return [(self.kind, self.k_enc, v, poly(v)) for v in self.values]


@dataclass(frozen=True)
class FiberCount:
    """Number of subfield null vectors whose pairing hits one value code."""

    value: int
    count: int


def _gram(ctx: FieldCtx, u: tuple[int, ...]) -> tuple[int, ...]:
    """Gram tuple of u: g_ij = u_i^q * u_j, row-major.

    The pairing <u, M u> is sum m_ij * g_ij, and g does not change under
    u -> lambda u with N(lambda) = 1, so many cone vectors share one g.
    On F_q coordinates the Frobenius is the identity and F_{q^2}
    arithmetic agrees with F_q arithmetic, so both modes share this map.
    """
    mul = ctx.mul_enc
    conj = [ctx.frob_enc(ui) for ui in u]
    return tuple(mul(ci, uj) for ci in conj for uj in u)


def _values(m: HermMatrix, grams) -> list[int]:
    """<u, M u> = sum m_ij * g_ij for each Gram tuple g of the iterable.

    Zero entries of M drop out here; the context sums the rest in the
    arithmetic of its tier.
    """
    terms = [(i, mij)
             for i, mij in enumerate(e for row in m.encs() for e in row) if mij]
    return m.ctx.dot_encs(terms, grams)


@lru_cache(maxsize=128)
def gram_classes(ctx: FieldCtx, n: int, k_enc: int, mode: str,
                 capacity: int = DEFAULT_CAPACITY):
    """Distinct Gram tuples of one cone, sorted, with their multiplicities.

    Returns (classes, cone_size), where classes is a tuple of
    (gram, count) pairs whose counts sum to cone_size.  Keyed like
    cone_encs and cached the same way.  At level 0 the first class holds
    the zero vector alone, as g_ii = N(u_i) is nonzero when u_i is.
    """
    cone = cone_encs(ctx, n, k_enc, mode, capacity)
    counts = Counter(_gram(ctx, u) for u in cone)
    return tuple(sorted(counts.items())), len(cone)


def _check_range(m: HermMatrix, kind: str, k) -> tuple[str, bool]:
    """Mode and null flag of a range kind, once m and the level code k
    are checked against it.  k is None from the null entry points, which
    fix the level at zero."""
    if kind not in RANGE_KINDS:
        raise ValueError(f"unknown range kind {kind!r}; expected one of "
                         f"{', '.join(RANGE_KINDS)}")
    mode, null = RANGE_KINDS[kind]
    if k is not None:
        check_level(m.ctx, k)
        if null and k:
            raise ValueError(f"{kind} is a null-range and runs at level zero "
                             f"only, got level {k}")
    if null and m.n < 2:
        raise ValueError("null-range needs dimension at least 2")
    if mode == SUBFIELD and not m.has_subfield_coeffs:
        raise ValueError("subfield range needs a matrix with F_q entries")
    return mode, null


def _range(m: HermMatrix, kind: str, k, capacity: int, sample_budget,
           rng) -> RangeSet:
    """Any kind's range: over the Gram classes of the level-k cone, less
    the zero vector's for a null-range, or sampled past capacity."""
    mode, null = _check_range(m, kind, k)
    k_enc = 0 if null else k
    ctx = m.ctx
    if sample_budget is not None:
        if type(sample_budget) is not int or sample_budget < 1:
            raise ValueError(f"sample budget must be an integer of at "
                             f"least 1, got {sample_budget!r}")
        # draws are bounded like enumerations, before the first one
        limit = max(capacity, DEFAULT_CAPACITY)
        if sample_budget > limit:
            raise CapacityError(
                f"sample budget is {sample_budget}, the bound is {limit} "
                f"(the larger of the capacity and {DEFAULT_CAPACITY})")
    if cone_excess(ctx, m.n, mode, capacity) is None:
        classes, size = gram_classes(ctx, m.n, k_enc, mode, capacity)
        values = set(_values(m, (g for g, _ in classes[null:])))
        return RangeSet(kind=kind, k_enc=k_enc, values=tuple(sorted(values)),
                        mode=EXHAUSTIVE, witness_count=size - null, ctx=ctx)
    if sample_budget is None:
        # m holds n^2 entries, so its bound's power is cheap to write
        bound = cone_upper_bound(ctx, m.n, mode)
        raise CapacityError(
            f"cone may hold up to {count_text(bound)} vectors, capacity is "
            f"{count_text(capacity)}; pass a sample budget for a witness "
            "subset")
    if rng is None:
        raise ValueError("sampling requires a seeded random generator")
    values = set(_values(m, (_gram(ctx, u) for u in sample_cone_encs(
        ctx, m.n, k_enc, mode, null, sample_budget, rng))))
    return RangeSet(kind=kind, k_enc=k_enc, values=tuple(sorted(values)),
                    mode=SAMPLED, witness_count=sample_budget, ctx=ctx)


def num_k(m: HermMatrix, k: int, *, capacity: int = DEFAULT_CAPACITY,
          sample_budget: int | None = None, rng=None) -> RangeSet:
    """Range of <u, M u> over <u, u> = k, coordinates in the full field."""
    return _range(m, KIND_NUM_K, k, capacity, sample_budget, rng)


def num0_prime(m: HermMatrix, *, capacity: int = DEFAULT_CAPACITY,
               sample_budget: int | None = None, rng=None) -> RangeSet:
    """Null-range: <u, M u> over nonzero u with <u, u> = 0.

    Undefined for 1 by 1 matrices, whose zero level set is trivial.
    """
    return _range(m, KIND_NUM0_PRIME, None, capacity, sample_budget, rng)


def num_k_subfield(m: HermMatrix, k: int, *,
                   capacity: int = DEFAULT_CAPACITY,
                   sample_budget: int | None = None, rng=None) -> RangeSet:
    """Range at level k with coordinates restricted to F_q."""
    return _range(m, KIND_NUM_K_SUBFIELD, k, capacity, sample_budget, rng)


def num0_prime_subfield(m: HermMatrix, *, capacity: int = DEFAULT_CAPACITY,
                        sample_budget: int | None = None, rng=None) -> RangeSet:
    """Null-range with coordinates restricted to F_q."""
    return _range(m, KIND_NUM0_PRIME_SUBFIELD, None, capacity, sample_budget,
                  rng)


def range_of(m: HermMatrix, kind: str, k: int, **kw) -> RangeSet:
    """The range of a kind in RANGE_KINDS at the level code k, computed
    by the kind's entry point; keywords go to it unchanged.

    Null kinds take only k = 0.  Their entry points have no level
    argument, so the validator is called here when the level is wrong;
    otherwise every check runs once, in the entry point.
    """
    if kind not in RANGE_KINDS:
        _check_range(m, kind, k)  # raises: unknown kind
    if not RANGE_KINDS[kind][1]:
        return _ENTRY_POINTS[kind](m, k, **kw)
    if k or type(k) is not int:
        _check_range(m, kind, k)  # raises: a null-range takes only k = 0
    return _ENTRY_POINTS[kind](m, **kw)


def fiber_count(m: HermMatrix, a: int, *,
                capacity: int = DEFAULT_CAPACITY) -> FiberCount:
    """How many subfield null vectors (zero included) pair to the value
    code a: the entry of fiber_table(m) at a."""
    check_level(m.ctx, a)
    return fiber_table(m, capacity=capacity)[a]


def fiber_table(m: HermMatrix, *,
                capacity: int = DEFAULT_CAPACITY) -> tuple[FiberCount, ...]:
    """Fiber counts for every value of F_q; counts sum to the cone size."""
    ctx = m.ctx
    if not m.has_subfield_coeffs:
        raise ValueError("fiber counting needs a matrix with F_q entries")
    classes, _ = gram_classes(ctx, m.n, 0, SUBFIELD, capacity)
    counts = [0] * ctx.q
    for (_, c), v in zip(classes, _values(m, (g for g, _ in classes))):
        counts[v] += c
    return tuple(FiberCount(value=v, count=c) for v, c in enumerate(counts))


def scaling_law_check(m: HermMatrix, *, capacity: int = DEFAULT_CAPACITY) -> bool:
    """Whether the level-k range is the level-1 range scaled by k, for
    every nonzero k in F_q."""
    ctx = m.ctx
    base = num_k(m, 1, capacity=capacity).require_exhaustive()
    for k in range(1, ctx.q):
        scaled = tuple(sorted(ctx.mul_enc(k, v) for v in base.values))
        got = num_k(m, k, capacity=capacity).require_exhaustive()
        if got.values != scaled:
            return False
    return True


def resolve_affine_shift(ctx: FieldCtx, *, k: int, trials: int = 20,
                         rng=None, capacity: int = DEFAULT_CAPACITY) -> str:
    """Decide how the level value enters the range of a shifted matrix.

    For random 2 by 2 matrices M, compares the range of I + M at level k
    against two candidate shifts of the range of M: by the level code k
    itself and by k squared.  Returns "ck", "ck2", or "tie" when the
    level value cannot separate them (always the case for k in {0, 1}).
    """
    if rng is None:
        raise ValueError("resolution requires a seeded random generator")
    if type(trials) is not int or trials < 1:
        raise ValueError(f"trials must be a positive integer, got {trials!r}")
    check_level(ctx, k)
    ident = HermMatrix.identity(ctx, 2)
    ck_ok = ck2_ok = True
    for rows in draw_matrices(rng, ctx.q2, 2, trials):
        m = HermMatrix.from_encs(ctx, rows)
        base = num_k(m, k, capacity=capacity).require_exhaustive()
        shifted = num_k(ident + m, k, capacity=capacity).require_exhaustive()
        by_ck = tuple(sorted(ctx.add_enc(k, v) for v in base.values))
        ksq = ctx.q_mul(k, k)
        by_ck2 = tuple(sorted(ctx.add_enc(ksq, v) for v in base.values))
        if shifted.values != by_ck:
            ck_ok = False
        if shifted.values != by_ck2:
            ck2_ok = False
    if ck_ok and not ck2_ok:
        return "ck"
    if ck2_ok and not ck_ok:
        return "ck2"
    if ck_ok and ck2_ok:
        return "tie"
    raise RuntimeError("neither candidate shift law survived the trials")
