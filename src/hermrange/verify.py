"""Sweep runners: predictions versus brute force over whole matrix spaces.

Each runner walks a family of matrices, asks the classifier for every
applicable claim, computes the corresponding range or fiber count
exhaustively, and aggregates verdicts into a serializable report.  A
failing check names the matrix, the rule tag, and the observed values,
so a single failure pinpoints the rule it contradicts.

All runners share one loop, _sweep; a runner only yields cases, each
the code rows of a matrix, its predictor, an outcome key and a range
class.  Every matrix gets its own tally and report rows; the two keys
only let matrices share work.

Cases with one outcome key share the first one's outcomes (observations
and verdicts), which is exact when the predictions and observations are
functions of the key.  The exhaustive subfield sweep keys on the
symmetrized class: for u in F_q^n the pairing is
<u, M u> = sum m_ii u_i^2 + sum_{i<j} (m_ij + m_ji) u_i u_j, so every
subfield range, fiber count and subfield rule depends on M only through
its diagonal and the sums m_ij + m_ji.  Random subfield draws rarely
repeat a class, so a key there would only hold memory.

No symmetrized class exists over the full field (m_ij x + m_ji x^q
determines both entries), but every full-field rule is about level 0,
and the level-0 ranges of a 2 by 2 matrix depend only on its null class
(classify.null_class): (m11 - m22, N(m12), m12 m21), or
(m11 - m22, 0, N(m21)) when m12 = 0.  Its predictions do not, so a
full-field case is predicted and checked on its own and shares only its
ranges, through one cache per class.  A sweep keeps those caches only
when they fit in RANGE_CACHE_VALUES range values even if it meets every
class (q <= 7); past that a random draw rarely repeats a class, and the
caches would grow with the draw count.
"""

from __future__ import annotations

import itertools
import random

from .classify import (FAIL, NULL_CLASS_KINDS, SCOPE_FIBER_ZERO,
                       check_prediction, null_class, predict_direct_sum,
                       predict_full_field, predict_subfield, symmetrized)
from .fields import FieldCtx
from .hermitian import (DEFAULT_CAPACITY, SUBFIELD, CapacityError, HermMatrix,
                        block_diag, cone_upper_bound)
from .ranges import (FiberCount, fiber_count, num_k, range_of,
                     resolve_affine_shift)

SCOPE_EXHAUSTIVE_2X2 = "exhaustive-2x2"
SCOPE_RANDOM_NXN = "random-nxn"
SCOPE_SCALAR_FIBERS = "scalar-fibers"
SCOPE_DIRECT_SUMS = "direct-sums"

VERIFY_SCOPES = (SCOPE_EXHAUSTIVE_2X2, SCOPE_RANDOM_NXN, SCOPE_SCALAR_FIBERS,
                 SCOPE_DIRECT_SUMS)

# Range values a sweep may cache by null class: two level-0 ranges of at
# most q^2 values for each of the q^3 (q^2 - q + 1) classes must fit.
# 2^21 admits q <= 7 (at most 1.45 M values at q = 7; 60,000 random
# draws there meet 98 % of the classes and raise peak RSS from 21 to
# 38 MB under CPython 3.11) and no larger q.
RANGE_CACHE_VALUES = 1 << 21

COLLECT_ALL = "all"
COLLECT_FAILS = "fails"


def evaluate(m: HermMatrix, preds, capacity: int = DEFAULT_CAPACITY,
             cache: dict | None = None) -> tuple:
    """Observe each prediction's range (or fiber count) and check it.

    Each outcome is (basis, k_enc, claim, observed, verdict), observed
    being the RangeSet or FiberCount; predictions on one scope and level
    share one observation.  Neither holds the matrix, so a class of
    matrices can share outcomes.

    Observations are kept in cache under (scope, k_enc); without a cache
    each call keeps its own.  A cache passed in belongs to one range
    class (classify.null_class) and is shared by all its matrices; the
    class fixes only the level-0 ranges, so any other prediction raises
    RuntimeError rather than read another matrix's range.
    """
    ctx = m.ctx
    shared = cache is not None
    if not shared:
        cache = {}
    outcomes = []
    for pred in preds:
        if shared and (pred.k_enc or pred.scope not in NULL_CLASS_KINDS):
            raise RuntimeError(
                f"{pred.basis} claims {pred.scope}@k={pred.k_enc}, which "
                f"its range class does not determine")
        key = (pred.scope, pred.k_enc)
        obs = cache.get(key)
        if obs is None:
            if pred.scope == SCOPE_FIBER_ZERO:
                obs = fiber_count(m, ctx.zero, capacity=capacity)
            else:
                obs = range_of(m, pred.scope, ctx.elem(pred.k_enc),
                               capacity=capacity)
            cache[key] = obs
        outcomes.append((pred.basis, pred.k_enc, pred.claim, obs,
                         check_prediction(pred, obs)))
    return tuple(outcomes)


def _observed_json(obs, verdict: str) -> dict:
    if isinstance(obs, FiberCount):
        return {"count": obs.count}
    out = {"cardinality": obs.cardinality, "mode": obs.mode}
    if verdict == FAIL:
        out["values"] = list(obs.values)
    return out


def _subfield_preds(m: HermMatrix) -> list:
    """Subfield predictions of m at every level of F_q."""
    preds = []
    for k in range(m.ctx.q):
        preds.extend(predict_subfield(m, m.ctx.elem(k)))
    return preds


def _draw(rng: random.Random, limit: int, n: int) -> tuple:
    """Code rows of an n by n matrix with entries drawn below limit."""
    return tuple(tuple(rng.randrange(limit) for _ in range(n))
                 for _ in range(n))


def _shares_ranges(ctx: FieldCtx) -> bool:
    """Whether a full-field 2 by 2 sweep caches ranges by null class: the
    caches of every class must fit in RANGE_CACHE_VALUES values."""
    classes = ctx.q ** 3 * (ctx.q2 - ctx.q + 1)
    return 2 * ctx.q2 * classes <= RANGE_CACHE_VALUES


def _check_count(count: int) -> None:
    if count < 0:
        raise ValueError(f"matrix count must not be negative, got {count}")


def _sweep(ctx: FieldCtx, scope: str, cases, collect: str, capacity: int,
           config: dict) -> dict:
    """The one loop of every runner: build, evaluate, tally and report.

    cases yields (rows, predict, key, cls): the code rows of one matrix,
    a function listing the predictions of the built matrix, an outcome
    key or None, and a range class or None.  A case whose key an
    earlier case had takes that case's outcomes instead of being built
    and evaluated; this is exact when the predictions and the
    observations are functions of the key.  A case with a range class
    is built, predicted and checked on its own, but reads its ranges
    from the one cache of its class, which is exact when the ranges are
    functions of the class.  Every case still gets its own tally and
    report rows.
    """
    if collect not in (COLLECT_ALL, COLLECT_FAILS):
        raise ValueError(f"unknown collect policy {collect!r}")
    checks: list[dict] = []
    counts = {"total": 0, "pass": 0, "fail": 0, "inapplicable": 0}
    by_citation: dict[str, dict] = {}
    shared: dict = {}
    ranges: dict = {}
    for rows, predict, key, cls in cases:
        if key is None or key not in shared:
            m = HermMatrix.from_encs(ctx, rows)
            cache = None if cls is None else ranges.setdefault(cls, {})
            shared[key] = evaluate(m, predict(m), capacity, cache)
        for basis, k_enc, claim, observed, verdict in shared[key]:
            counts["total"] += 1
            counts[verdict] += 1
            per = by_citation.setdefault(
                basis, {"pass": 0, "fail": 0, "inapplicable": 0})
            per[verdict] += 1
            if collect == COLLECT_ALL or verdict == FAIL:
                checks.append({
                    "matrix": [list(r) for r in rows],
                    "k": k_enc,
                    "citation": basis,
                    "claim": claim,
                    "observed": _observed_json(observed, verdict),
                    "verdict": verdict,
                })
    return {"config": {"p": ctx.p, "m": ctx.m, "q": ctx.q, "q2": ctx.q2,
                       "scope": scope, **config},
            "checks": checks, "summary": dict(counts, by_citation=by_citation)}


def run_exhaustive_2x2(ctx: FieldCtx, *, space: str = "auto",
                       collect: str = COLLECT_ALL,
                       capacity: int = DEFAULT_CAPACITY,
                       seed: int = 0) -> dict:
    """Check every rule on every 2 by 2 matrix of the chosen space(s).

    space "full" sweeps all matrices over the big field, "subfield"
    sweeps F_q entries with every level k, "both" does both and "auto"
    picks both for q <= 3 and subfield only above that.  A sweep whose
    spaces hold more than capacity matrices (q^8 full, q^4 subfield)
    raises CapacityError before its first matrix.
    """
    if space == "auto":
        spaces = ("full", "subfield") if ctx.q <= 3 else ("subfield",)
    elif space == "both":
        spaces = ("full", "subfield")
    elif space in ("full", "subfield"):
        spaces = (space,)
    else:
        raise ValueError(f"unknown space {space!r}")
    total = sum(ctx.q2 ** 4 if sp == "full" else ctx.q ** 4 for sp in spaces)
    if total > capacity:
        raise CapacityError(f"exhaustive 2x2 sweep over {'+'.join(spaces)} "
                            f"holds {total} matrices, capacity is {capacity}")

    keyed = _shares_ranges(ctx)

    def cases():
        for sp in spaces:
            if sp == "full":
                for encs in itertools.product(range(ctx.q2), repeat=4):
                    rows = (encs[0:2], encs[2:4])
                    yield (rows, predict_full_field, None,
                           null_class(ctx, rows) if keyed else None)
            else:
                # q^3 classes, each met q times: once per split of its sum
                for encs in itertools.product(range(ctx.q), repeat=4):
                    rows = (encs[0:2], encs[2:4])
                    yield rows, _subfield_preds, symmetrized(ctx, rows), None

    report = _sweep(ctx, SCOPE_EXHAUSTIVE_2X2, cases(), collect, capacity,
                    {"space": space, "seed": seed})
    # settle how the level enters the range of a shifted matrix; only a
    # level outside {0, 1} can separate the two candidate laws
    if ctx.q > 2:
        form = resolve_affine_shift(ctx, k=ctx.elem(2), trials=20,
                                    rng=random.Random(seed),
                                    capacity=capacity)
        report["affine_law"] = {"form": form, "decidable": True}
    else:
        report["affine_law"] = {"form": "tie", "decidable": False}
    return report


def run_random_nxn(ctx: FieldCtx, *, n: int = 3, count: int = 50,
                   seed: int = 0, space: str = "subfield",
                   collect: str = COLLECT_ALL,
                   capacity: int = DEFAULT_CAPACITY) -> dict:
    """Check rules on seeded random n by n matrices.

    A subfield draw is checked at all q levels, so a sweep whose level
    cones may hold more than capacity vectors in all raises
    CapacityError before its first draw.
    """
    _check_count(count)
    if n < 2:
        raise ValueError(f"dimension must be at least 2, got {n}")
    if space not in ("full", "subfield"):
        raise ValueError(f"unknown space {space!r}")
    if space == "full" and n != 2:
        raise ValueError("full-field rules cover n=2 only")
    if space == "subfield":
        total = ctx.q * cone_upper_bound(ctx, n, SUBFIELD)
        if total > capacity:
            raise CapacityError(
                f"random {n}x{n} subfield sweep enumerates up to {total} "
                f"vectors a matrix, capacity is {capacity}")
    rng = random.Random(seed)
    limit, predict = ((ctx.q2, predict_full_field) if space == "full"
                      else (ctx.q, _subfield_preds))
    keyed = space == "full" and _shares_ranges(ctx)
    cases = ((rows, predict, None, null_class(ctx, rows) if keyed else None)
             for rows in (_draw(rng, limit, n) for _ in range(count)))
    return _sweep(ctx, SCOPE_RANDOM_NXN, cases, collect, capacity,
                  {"n": n, "count": count, "seed": seed, "space": space})


def run_scalar_fibers(ctx: FieldCtx, *, n_values=(2, 3, 4, 5),
                      c_encs=None, collect: str = COLLECT_ALL,
                      capacity: int = DEFAULT_CAPACITY) -> dict:
    """Fiber-size formula versus counted null fibers for scalar matrices."""
    for n in n_values:
        if n < 2:
            raise ValueError(f"dimension must be at least 2, got {n}")
    if c_encs is None:
        c_encs = tuple(range(1, ctx.q)) if ctx.q <= 5 else (1, 2)
    cases = ((tuple(tuple(c if i == j else 0 for j in range(n))
                    for i in range(n)),
              lambda m: predict_subfield(m, ctx.zero), None, None)
             for n in n_values for c in c_encs)
    return _sweep(ctx, SCOPE_SCALAR_FIBERS, cases, collect, capacity,
                  {"n_values": list(n_values), "c_encs": list(c_encs)})


def run_direct_sums(ctx: FieldCtx, *, count: int = 50, seed: int = 0,
                    collect: str = COLLECT_ALL,
                    capacity: int = DEFAULT_CAPACITY) -> dict:
    """Zero-level assembly law on random block-diagonal matrices."""
    _check_count(count)
    rng = random.Random(seed)
    splits = ((1, 1), (1, 2), (2, 1))

    def cases():
        for i in range(count):
            xa, xb = splits[i % len(splits)]
            a = HermMatrix.from_encs(ctx, _draw(rng, ctx.q2, xa))
            b = HermMatrix.from_encs(ctx, _draw(rng, ctx.q2, xb))

            def predict(m, a=a, b=b):
                return predict_direct_sum(
                    a, b, num_k(a, ctx.one, capacity=capacity),
                    num_k(b, ctx.one, capacity=capacity),
                    num_k(a, ctx.zero, capacity=capacity),
                    num_k(b, ctx.zero, capacity=capacity), capacity=capacity)
            yield block_diag(a, b).encs(), predict, None, None

    return _sweep(ctx, SCOPE_DIRECT_SUMS, cases(), collect, capacity,
                  {"count": count, "seed": seed})


def run_scope(ctx: FieldCtx, scope: str, *, n: int | None = None,
              count: int = 50, space: str = "auto", seed: int = 0,
              collect: str = COLLECT_ALL,
              capacity: int = DEFAULT_CAPACITY) -> dict:
    """Run a named sweep preset from the command line's size options.

    n, count and space become each runner's own arguments here, and a
    preset ignores the options it does not take: n defaults to 3 for
    random-nxn and to the runner's sizes for scalar-fibers, and space
    "auto" means subfield for random-nxn.
    """
    common = {"collect": collect, "capacity": capacity}
    if scope == SCOPE_EXHAUSTIVE_2X2:
        return run_exhaustive_2x2(ctx, space=space, seed=seed, **common)
    if scope == SCOPE_RANDOM_NXN:
        return run_random_nxn(
            ctx, n=3 if n is None else n, count=count, seed=seed,
            space="subfield" if space == "auto" else space, **common)
    if scope == SCOPE_SCALAR_FIBERS:
        if n is not None:
            common["n_values"] = (n,)
        return run_scalar_fibers(ctx, **common)
    if scope == SCOPE_DIRECT_SUMS:
        return run_direct_sums(ctx, count=count, seed=seed, **common)
    raise ValueError(f"unknown verification scope {scope!r}")
