"""Sweep runners: predictions versus brute force over whole matrix spaces.

Each runner walks a family of matrices, asks the classifier for every
applicable claim, computes the corresponding range or fiber count
exhaustively, and aggregates verdicts into a serializable report.  A
failing check names the matrix, the rule tag, and the observed values,
so a single failure pinpoints the rule it contradicts.

Every runner checks its largest enumeration against the capacity before
its first case, so a sweep never starts work that a later case would
refuse: the matrix count of an exhaustive sweep, the q level cones of a
random subfield draw, the 2 by 2 level-0 cone of a random full-field
draw, the subfield cone of every scalar-fibers n, and the full-field
cone of the largest direct sum.  The random sweeps also bound their
matrix count by the capacity, so a huge count is refused, not run.

All runners share one loop, _sweep; a runner only yields cases, each
the code rows of a matrix, its predictor and an outcome key.  Cases with
one outcome key share the first one's outcomes (observations and
verdicts), which is exact when the predictions and observations are
functions of the key.  Every matrix still gets its own tally and report
rows; the key only lets matrices share work.  Rows share objects too:
the rows of one matrix hold one "matrix" list, and the rows of one
outcome hold one "observed" dict, so a report's rows are read-only.

The exhaustive subfield sweep keys on the symmetrized class: for u in
F_q^n the pairing is
<u, M u> = sum m_ii u_i^2 + sum_{i<j} (m_ij + m_ji) u_i u_j, so every
subfield range, fiber count and subfield rule depends on M only through
its diagonal and the sums m_ij + m_ji; at n = 2 the key is
((m11, m22), m12 + m21), and each class is predicted once for all q
levels.  Classes also share along the affine orbit aI + cM, c != 0:
<u, u> = sum u_i^2, so Num_k(aI + cM)_q = a k + c Num_k(M)_q, a
bijection of F_q at each level that keeps every range's size and, at
level 0, the fiber of 0.  Every hypothesis predict_subfield reads at
n = 2 stands too, except prop7's m11 != 0, so the zero matrix and the
nonzero scalars are orbits of their own
(classify.affine_subfield_classes).  A passing class's outcomes are
stored under its orbit's keys, as for the full space below, so the q^3
classes are predicted and evaluated once per orbit, q + 3 times (12 at
q = 9, against 729 classes), and the sweep's time goes to the loop over
its q^4 matrices.  A guard, _subfield_class_preds, raises RuntimeError
on any claim whose verdict the orbit need not keep.  Random subfield
draws rarely repeat a class, so a key there would only hold memory.

Full-field 2 by 2 sweeps key on the null class (classify.null_class),
one formula for every matrix: (m11 - m22, N(m12), N(m21), m12 m21).
A class is one orbit of the shifts M -> M + aI and of conjugation by
diag(1, mu), N(mu) = 1.  Both fix the null cone and the values on it,
so they fix both level-0 ranges, and they preserve every hypothesis
predict_full_field reads: scalarity, the eigenvalue gap up to sign,
eigenvector isotropy and orthogonality, eigenspace dimensions, whether
m12 m21 != 0, and whether N(m12) = N(m21).  So the predictions are
functions of the class too.

They also share outcomes across the scale orbit of a class.  For
lam != 0, lam M has the null cone of M and <u, lam M u> = lam <u, M u>,
so its level-0 ranges are lam times those of M, and scaling keeps every
hypothesis above (the eigenvalue gap up to a scalar).  Every claim type
in SCALE_COVARIANT_CLAIMS keeps its verdict when its range and its target
set scale alike, and a row that does not fail reports only the range's
cardinality and mode.  So once a representative's outcomes hold no
fail, they are stored under the keys of all q^2 - 1 multiples
(classify.scaled_null_classes), with q^2 - 1 lookups an orbit and none
a draw; no range is mapped.  A representative with a fail shares with
no other class, so each class of its orbit is evaluated on its own and
its failing rows carry its own values.  There are 10 orbits of 24
classes at q = 2, 28 of 189 at q = 3, 58 of 832 at q = 4 and 116 of
2,625 at q = 5.

One guard, _null_class_preds, runs once per class or orbit on the
representative's predictions and raises RuntimeError on any claim off
level 0, outside NULL_CLASS_KINDS or of a type outside
SCALE_COVARIANT_CLAIMS, so a future rule the orbit does not fix fails
loudly instead of taking another matrix's outcome.  The memo holds one
outcome per orbit under one key per class, so the capacity bounds it as
it bounds the exhaustive full space: both key exactly when q^8 <=
capacity, and a random draw past that is evaluated on its own, so its
memo cannot grow with the draw count.
"""

from __future__ import annotations

import functools
import itertools
import random

from .classify import (CLAIM_LINE, CLAIM_MEMBER, FAIL, NULL_CLASS_KINDS,
                       SCALE_COVARIANT_CLAIMS, SCOPE_FIBER_ZERO,
                       affine_subfield_classes, check_prediction, null_class,
                       predict_direct_sum, predict_full_field,
                       predict_subfield, scaled_null_classes)
from .fields import FieldCtx
from .hermitian import (DEFAULT_CAPACITY, FULL_FIELD, SUBFIELD, CapacityError,
                        HermMatrix, block_diag, cone_excess, count_text,
                        draw_matrices)
from .ranges import FiberCount, fiber_count, range_of, resolve_affine_shift

SCOPE_EXHAUSTIVE_2X2 = "exhaustive-2x2"
SCOPE_RANDOM_NXN = "random-nxn"
SCOPE_SCALAR_FIBERS = "scalar-fibers"
SCOPE_DIRECT_SUMS = "direct-sums"

VERIFY_SCOPES = (SCOPE_EXHAUSTIVE_2X2, SCOPE_RANDOM_NXN, SCOPE_SCALAR_FIBERS,
                 SCOPE_DIRECT_SUMS)

COLLECT_ALL = "all"
COLLECT_FAILS = "fails"


def evaluate(m: HermMatrix, preds, capacity: int = DEFAULT_CAPACITY) -> tuple:
    """Observe each prediction's range (or fiber count) and check it.

    Each outcome is (basis, k_enc, claim, observed, verdict), observed
    being the RangeSet or FiberCount; predictions on one scope and level
    share one observation.  Neither holds the matrix, so a class of
    matrices can share outcomes.
    """
    observed = {}
    outcomes = []
    for pred in preds:
        key = (pred.scope, pred.k_enc)
        obs = observed.get(key)
        if obs is None:
            if pred.scope == SCOPE_FIBER_ZERO:
                obs = fiber_count(m, pred.k_enc, capacity=capacity)
            else:
                obs = range_of(m, pred.scope, pred.k_enc, capacity=capacity)
            observed[key] = obs
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


def _null_class_preds(m: HermMatrix) -> list:
    """predict_full_field of a null-class representative, whose outcomes
    its whole class, and when none fails its scale orbit, takes; raises
    RuntimeError on any claim the class does not fix (off level 0, or
    outside NULL_CLASS_KINDS) and on any claim type outside
    SCALE_COVARIANT_CLAIMS."""
    preds = predict_full_field(m)
    for pred in preds:
        if pred.k_enc or pred.scope not in NULL_CLASS_KINDS:
            raise RuntimeError(
                f"{pred.basis} claims {pred.scope}@k={pred.k_enc}, which "
                f"its null class does not determine")
        if pred.claim not in SCALE_COVARIANT_CLAIMS:
            raise RuntimeError(
                f"{pred.basis} claims {pred.claim}, whose verdict its "
                f"null class's scale orbit need not share")
    return preds


def _subfield_class_preds(m: HermMatrix) -> list:
    """predict_subfield at every level of a subfield class representative,
    whose outcomes its class, and when none fails its affine orbit, takes;
    raises RuntimeError on any claim whose verdict the orbit need not keep:
    a claim type outside SCALE_COVARIANT_CLAIMS, and off level 0 a
    membership, line or nonzero-only bound (level k moves by a k) or a
    fiber count (its value moves by c)."""
    preds = predict_subfield(m, range(m.ctx.q))
    for pred in preds:
        moves = pred.k_enc and (pred.claim in (CLAIM_MEMBER, CLAIM_LINE)
                                or pred.nonzero_only
                                or pred.scope == SCOPE_FIBER_ZERO)
        if moves or pred.claim not in SCALE_COVARIANT_CLAIMS:
            raise RuntimeError(
                f"{pred.basis} claims {pred.claim} on "
                f"{pred.scope}@k={pred.k_enc}, whose verdict its subfield "
                f"class's affine orbit need not share")
    return preds


def _check_count(count: int) -> None:
    if count < 0:
        raise ValueError(f"matrix count must not be negative, got {count}")


def _check_capacity(sweep: str, ctx: FieldCtx, n: int, mode: str,
                    capacity: int, levels: int = 1) -> None:
    """Refuse a sweep before its first case when a matrix may enumerate
    more than capacity vectors: levels cones of dimension n in mode."""
    excess = cone_excess(ctx, n, mode, capacity, levels)
    if excess is not None:
        raise CapacityError(f"{sweep} sweep enumerates up to {excess} "
                            f"vectors a matrix, capacity is "
                            f"{count_text(capacity)}")


def _check_draws(sweep: str, count: int, capacity: int) -> None:
    """Refuse a random sweep of more than capacity matrices before its
    first draw."""
    if count > capacity:
        raise CapacityError(f"{sweep} sweep draws {count_text(count)} "
                            f"matrices, capacity is {count_text(capacity)}")


def _sweep(ctx: FieldCtx, scope: str, cases, collect: str, capacity: int,
           config: dict, orbit=None) -> dict:
    """The one loop of every runner: build, evaluate, tally and report.

    cases yields (rows, predict, key): the code rows of one matrix, a
    function listing the predictions of the built matrix, and an outcome
    key or None.  A case whose key an earlier case had takes that case's
    outcomes instead of being built, predicted and evaluated; this is
    exact when the predictions and the observations are functions of
    the key.  orbit, if given, lists the keys whose cases may take the
    outcomes of a key's case as well; they take them only when none of
    them fails, and never from a key that already holds outcomes.  Every
    case still gets its own tally and report rows; the tally of an
    outcome is taken once, times the cases that met it under any key.

    An outcome's row parts (k, citation, claim, observed dict and
    verdict), those of every check with collect="all" and of the
    failing ones with "fails", are built when it is evaluated, and the
    rows of one case share one matrix list.  So report rows share their
    "matrix" list and their "observed" dict with other rows: treat them
    as read-only.
    """
    if collect not in (COLLECT_ALL, COLLECT_FAILS):
        raise ValueError(f"unknown collect policy {collect!r}")
    checks: list[dict] = []
    counts = {"total": 0, "pass": 0, "fail": 0, "inapplicable": 0}
    by_citation: dict[str, dict] = {}

    def tally(outcomes, times):
        for basis, _, _, _, verdict in outcomes:
            counts["total"] += times
            counts[verdict] += times
            per = by_citation.setdefault(
                basis, {"pass": 0, "fail": 0, "inapplicable": 0})
            per[verdict] += times

    # key -> [outcomes, cases met, row parts]; None is never stored, and
    # the keys of one orbit share one entry
    shared: dict = {}
    entries = []
    for rows, predict, key in cases:
        entry = shared.get(key)
        if entry is None:
            m = HermMatrix.from_encs(ctx, rows)
            outcomes = evaluate(m, predict(m), capacity)
            entry = [outcomes, 0,
                     [(k_enc, basis, claim, _observed_json(observed, verdict),
                       verdict)
                      for basis, k_enc, claim, observed, verdict in outcomes
                      if collect == COLLECT_ALL or verdict == FAIL]]
            if key is None:
                tally(outcomes, 1)
            else:
                entries.append(entry)
                shared[key] = entry
                if orbit is not None and all(o[4] != FAIL for o in outcomes):
                    for other in orbit(key):
                        shared.setdefault(other, entry)
        entry[1] += 1
        if entry[2]:
            matrix = [list(r) for r in rows]
            for k_enc, basis, claim, observed, verdict in entry[2]:
                checks.append({"matrix": matrix, "k": k_enc,
                               "citation": basis, "claim": claim,
                               "observed": observed, "verdict": verdict})
    for outcomes, times, _ in entries:
        tally(outcomes, times)
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
    raises CapacityError before its first matrix.  The full space
    predicts and evaluates once per scale orbit of null classes and keeps
    one outcome per orbit, under one key for each of its
    q^3 (q^2 - q + 1) classes (about 20 MB peak RSS at q = 8 and 24 MB
    at q = 9 under CPython 3.11, with collect="fails"); the subfield
    space does so once per affine orbit of its q^3 symmetrized classes,
    q + 3 orbits (classify.affine_subfield_classes), so its time goes to
    the loop over its q^4 matrices.
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

    def orbit(key):
        # a null class (four codes) shares with its scale orbit, a
        # subfield class (two items) with its affine orbit
        if len(key) == 4:
            return scaled_null_classes(ctx, key)
        return affine_subfield_classes(ctx, key)

    def cases():
        # the two key shapes differ (four codes, or two items), so the
        # spaces of a "both" sweep never share an outcome
        for sp in spaces:
            if sp == "full":
                # q^3 (q^2 - q + 1) classes of q^2 to q^2 (q + 1) matrices
                for encs in itertools.product(range(ctx.q2), repeat=4):
                    rows = (encs[0:2], encs[2:4])
                    yield rows, _null_class_preds, null_class(ctx, rows)
            else:
                # q^3 classes (diagonal, m12 + m21) in q + 3 affine
                # orbits, each class met q times: once per split of its sum
                for m11, m12, m21, m22 in itertools.product(range(ctx.q),
                                                            repeat=4):
                    yield (((m11, m12), (m21, m22)), _subfield_class_preds,
                           ((m11, m22), ctx.q_add(m12, m21)))

    report = _sweep(ctx, SCOPE_EXHAUSTIVE_2X2, cases(), collect, capacity,
                    {"space": space, "seed": seed}, orbit)
    # settle how the level enters the range of a shifted matrix; only a
    # level outside {0, 1} can separate the two candidate laws
    if ctx.q > 2:
        form = resolve_affine_shift(ctx, k=2, trials=20,
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
    CapacityError before its first draw; a full-field sweep does so when
    its 2 by 2 level-0 cone may.  After those checks, a count above
    capacity raises CapacityError too.  Full-field draws share outcomes
    by null class when the q^8 matrices of the full space fit capacity,
    the bound of the exhaustive full sweep's memo.
    """
    _check_count(count)
    if n < 2:
        raise ValueError(f"dimension must be at least 2, got {n}")
    if space not in ("full", "subfield"):
        raise ValueError(f"unknown space {space!r}")
    if space == "full" and n != 2:
        raise ValueError("full-field rules cover n=2 only")
    if space == "subfield":
        sweep = f"random {n}x{n} subfield"
        _check_capacity(sweep, ctx, n, SUBFIELD, capacity, ctx.q)
    else:
        sweep = "random 2x2 full-field"
        _check_capacity(sweep, ctx, 2, FULL_FIELD, capacity)
    _check_draws(sweep, count, capacity)
    rng = random.Random(seed)
    draws = draw_matrices(rng, ctx.q2 if space == "full" else ctx.q, n, count)
    orbit = None
    if space == "subfield":
        cases = ((rows, lambda m: predict_subfield(m, range(ctx.q)), None)
                 for rows in draws)
    elif ctx.q2 ** 4 <= capacity:
        cases = ((rows, _null_class_preds, null_class(ctx, rows))
                 for rows in draws)
        orbit = functools.partial(scaled_null_classes, ctx)
    else:
        cases = ((rows, predict_full_field, None) for rows in draws)
    return _sweep(ctx, SCOPE_RANDOM_NXN, cases, collect, capacity,
                  {"n": n, "count": count, "seed": seed, "space": space},
                  orbit)


def run_scalar_fibers(ctx: FieldCtx, *, n_values=(2, 3, 4, 5),
                      collect: str = COLLECT_ALL,
                      capacity: int = DEFAULT_CAPACITY) -> dict:
    """Fiber-size formula versus counted null fibers for scalar matrices.

    Raises CapacityError before the first matrix when the subfield cone
    of any n in n_values may hold more than capacity vectors.
    """
    for n in n_values:
        if n < 2:
            raise ValueError(f"dimension must be at least 2, got {n}")
    for n in n_values:
        _check_capacity(f"scalar-fibers {n}x{n}", ctx, n, SUBFIELD,
                        capacity)
    c_encs = tuple(range(1, ctx.q)) if ctx.q <= 5 else (1, 2)
    cases = ((tuple(tuple(c if i == j else 0 for j in range(n))
                    for i in range(n)),
              lambda m: predict_subfield(m, (0,)), None)
             for n in n_values for c in c_encs)
    return _sweep(ctx, SCOPE_SCALAR_FIBERS, cases, collect, capacity,
                  {"n_values": list(n_values), "c_encs": list(c_encs)})


def run_direct_sums(ctx: FieldCtx, *, count: int = 50, seed: int = 0,
                    collect: str = COLLECT_ALL,
                    capacity: int = DEFAULT_CAPACITY) -> dict:
    """Zero-level assembly law on random block-diagonal matrices.

    Draw i is 2 by 2 or, from i = 1 on, 3 by 3, so a sweep whose
    full-field cone at the largest size may hold more than capacity
    vectors raises CapacityError before its first draw, and so, after
    that check, does a count above capacity.
    """
    _check_count(count)
    rng = random.Random(seed)
    splits = ((1, 1), (1, 2), (2, 1))
    for n in sorted({xa + xb for xa, xb in splits[:count]}):
        _check_capacity(f"direct-sums {n}x{n}", ctx, n, FULL_FIELD,
                        capacity)
    _check_draws("direct-sums", count, capacity)

    def cases():
        for i in range(count):
            xa, xb = splits[i % len(splits)]
            [a] = draw_matrices(rng, ctx.q2, xa, 1)
            [b] = draw_matrices(rng, ctx.q2, xb, 1)
            a, b = HermMatrix.from_encs(ctx, a), HermMatrix.from_encs(ctx, b)

            def predict(m, a=a, b=b):
                return predict_direct_sum(a, b, capacity=capacity)
            yield block_diag(a, b).encs(), predict, None

    return _sweep(ctx, SCOPE_DIRECT_SUMS, cases(), collect, capacity,
                  {"count": count, "seed": seed})


def run_scope(ctx: FieldCtx, scope: str, *, n: int | None = None,
              count: int = 50, space: str = "auto", seed: int = 0,
              collect: str = COLLECT_ALL,
              capacity: int = DEFAULT_CAPACITY) -> dict:
    """Run a named sweep preset from the command line's size options.

    n, count and space become each runner's own arguments here, and a
    preset ignores the options it does not take: space "auto" means
    subfield for random-nxn, whose n defaults to 3 on the subfield space
    and to 2, the one size of the full-field rules, on the full space;
    n defaults to the runner's sizes for scalar-fibers.
    """
    common = {"collect": collect, "capacity": capacity}
    if scope == SCOPE_EXHAUSTIVE_2X2:
        return run_exhaustive_2x2(ctx, space=space, seed=seed, **common)
    if scope == SCOPE_RANDOM_NXN:
        space = "subfield" if space == "auto" else space
        if n is None:
            n = 2 if space == "full" else 3
        return run_random_nxn(ctx, n=n, count=count, seed=seed, space=space,
                              **common)
    if scope == SCOPE_SCALAR_FIBERS:
        if n is not None:
            common["n_values"] = (n,)
        return run_scalar_fibers(ctx, **common)
    if scope == SCOPE_DIRECT_SUMS:
        return run_direct_sums(ctx, count=count, seed=seed, **common)
    raise ValueError(f"unknown verification scope {scope!r}")
