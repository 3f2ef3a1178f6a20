"""Sweep runners and the command line front end."""

import argparse
import dataclasses
import hashlib
import itertools
import json
import random
import time
from collections import Counter

import pytest

from hermrange import cli, verify
from hermrange.classify import (CLAIM_EMPTY, CLAIM_EXACT_CARD,
                                CLAIM_EXACT_SET, CLAIM_LINE,
                                CLAIM_LOWER_BOUND, CLAIM_MEMBER,
                                CLAIM_SUPERSET, CLAIM_UPPER_BOUND,
                                NULL_CLASS_KINDS, PASS,
                                SCALE_COVARIANT_CLAIMS, SCOPE_FIBER_ZERO,
                                Prediction, affine_subfield_classes,
                                null_class, predict_full_field,
                                predict_subfield, scaled_null_classes)
from hermrange.cli import build_parser, main
from hermrange.fields import build_tower
from hermrange.hermitian import (CapacityError, HermMatrix, count_text,
                                 draw_matrices)
from hermrange.ranges import (KIND_NUM0_PRIME, KIND_NUM0_PRIME_SUBFIELD,
                              KIND_NUM_K, KIND_NUM_K_SUBFIELD, RANGE_KINDS,
                              FiberCount, fiber_count, num0_prime,
                              num_k_subfield)
from hermrange.verify import (COLLECT_FAILS, SCOPE_SCALAR_FIBERS,
                              run_direct_sums, run_exhaustive_2x2,
                              run_random_nxn, run_scalar_fibers, run_scope)


def _clean(report):
    assert report["summary"]["fail"] == 0
    s = report["summary"]
    assert s["total"] == s["pass"] + s["inapplicable"] + s["fail"]
    return report


def test_exhaustive_sweep_over_the_smallest_field(f2):
    report = _clean(run_exhaustive_2x2(f2))
    assert report["summary"]["total"] == 840
    assert len(report["checks"]) == 840
    assert report["affine_law"] == {"form": "tie", "decidable": False}
    seen = set(report["summary"]["by_citation"])
    assert {"zero-in-num0", "remark4", "cor1", "prop1d", "prop2", "prop3",
            "prop4.i", "prop5.ii", "prop6.a", "prop6.b", "prop6.c",
            "prop7"} <= seen
    row = report["checks"][0]
    assert set(row) == {"matrix", "k", "citation", "claim", "observed",
                        "verdict"}


def test_collect_policy_can_drop_passing_rows(f2):
    report = _clean(run_exhaustive_2x2(f2, collect=COLLECT_FAILS))
    assert report["summary"]["total"] == 840
    assert report["checks"] == []


def test_level_shift_law_is_decidable_above_two(f3):
    report = _clean(run_exhaustive_2x2(f3, space="subfield"))
    assert report["affine_law"] == {"form": "ck", "decidable": True}


def test_random_sweep_is_deterministic(f3):
    a = run_random_nxn(f3, n=3, count=10, seed=5)
    b = run_random_nxn(f3, n=3, count=10, seed=5)
    assert _clean(a) == b
    _clean(run_random_nxn(f3, n=2, count=5, seed=1, space="full"))
    with pytest.raises(ValueError):
        run_random_nxn(f3, n=1)
    with pytest.raises(ValueError):
        run_random_nxn(f3, space="sideways")
    with pytest.raises(ValueError):
        run_random_nxn(f3, n=3, space="full")


def test_scalar_fiber_sweep(f3):
    report = _clean(run_scalar_fibers(f3, n_values=(2, 3)))
    assert any(c["citation"] == "prop7" and c["claim"] == "exact_card"
               for c in report["checks"])
    assert report["config"]["n_values"] == [2, 3]


def test_direct_sum_sweep(f2):
    report = _clean(run_direct_sums(f2, count=12, seed=3))
    assert report["summary"]["total"] == 24
    assert set(report["summary"]["by_citation"]) == {"lemma2"}


def _count_rule_calls(monkeypatch):
    calls = Counter()
    predict, check = verify.predict_subfield, verify.check_prediction

    def counting_predict(m, levels):
        preds = predict(m, levels)
        calls["predict"] += 1
        calls["predictions"] += len(preds)
        return preds

    def counting_check(pred, obs):
        calls["check"] += 1
        return check(pred, obs)

    monkeypatch.setattr(verify, "predict_subfield", counting_predict)
    monkeypatch.setattr(verify, "check_prediction", counting_check)
    return calls


def test_exhaustive_subfield_sweep_evaluates_each_class_once(monkeypatch,
                                                            towers):
    calls = _count_rule_calls(monkeypatch)
    for q, total in ((3, 93), (9, 22500)):
        calls.clear()
        report = _clean(run_exhaustive_2x2(towers[q], space="subfield"))
        # q^4 matrices, q^3 classes (two diagonal codes and one sum) in
        # q + 3 affine orbits, each predicted once for all q levels
        assert calls["predict"] == q + 3
        assert calls["check"] == calls["predictions"]
        # every matrix is still tallied and reported, as when each matrix
        # was evaluated on its own
        assert report["summary"]["total"] == total
        assert len(report["checks"]) == total
        assert calls["check"] < total


def _subfield_key(ctx, rows):
    """The outcome key the exhaustive subfield sweep gives 2 by 2 rows."""
    (m11, m12), (m21, m22) = rows
    return (m11, m22), ctx.q_add(m12, m21)


ZERO_CLASS = ((0, 0), 0)


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9))
def test_subfield_classes_fall_into_q_plus_3_affine_orbits(towers, q):
    # the zero matrix, the nonzero scalars, and one orbit of q (q - 1)
    # classes for each point [d1 - d2 : s] of P^1(F_q)
    ctx = towers[q]
    keys = {((d1, d2), s)
            for d1, d2, s in itertools.product(range(q), repeat=3)}
    orbits = {frozenset(affine_subfield_classes(ctx, key)) for key in keys}
    assert len(orbits) == q + 3
    assert sorted(map(len, orbits)) == [1, q - 1] + [q * (q - 1)] * (q + 1)
    assert set().union(*orbits) == keys
    assert affine_subfield_classes(ctx, ZERO_CLASS) == [ZERO_CLASS]
    for key in keys:
        orbit = affine_subfield_classes(ctx, key)
        assert len(set(orbit)) == len(orbit) and key in orbit


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9))
def test_subfield_outcomes_move_with_the_affine_orbit(towers, q):
    # what lets the exhaustive subfield sweep share a passing class's
    # outcomes with its affine orbit: for every class M and a I + c M,
    # c != 0, in the orbit affine_subfield_classes gives, the ordered
    # claims are those of M with exact and superset targets moved by
    # v -> a k + c v, the verdicts and sizes are equal, and the ranges
    # move alike.  Every member at q <= 5, seeded ones above, with the
    # zero matrix and a nonzero scalar always among the classes.
    ctx = towers[q]
    add, mul = ctx.q_add, ctx.q_mul
    pairs = [(a, c) for c in range(1, q) for a in range(q)]
    classes = list(itertools.product(range(q), repeat=3))
    rng = random.Random(q)
    if q > 5:
        classes = [(0, 0, 0), (1, 1, 0)] + rng.sample(classes, 40)
    for d1, d2, s in classes:
        key = ((d1, d2), s)
        m = HermMatrix.from_encs(ctx, ((d1, s), (0, d2)))
        preds = predict_subfield(m, range(q))
        outcomes = verify.evaluate(m, preds)
        orbit = set(affine_subfield_classes(ctx, key))
        for a, c in pairs if q <= 5 else rng.sample(pairs, 4):
            def move(k, v):
                return add(mul(a, k), mul(c, v))
            rows = ((move(1, d1), mul(c, s)), (0, move(1, d2)))
            member_key = _subfield_key(ctx, rows)
            member = HermMatrix.from_encs(ctx, rows)
            member_preds = predict_subfield(member, range(q))
            if (member_key == ZERO_CLASS) != (key == ZERO_CLASS):
                # prop7 reads m11 != 0, so it separates the zero matrix
                # from the nonzero scalars, which the orbit keeps apart
                assert member_key not in orbit
                assert (any(p.basis == "prop7" for p in preds)
                        != any(p.basis == "prop7" for p in member_preds))
                continue
            assert member_key in orbit, (key, a, c)
            assert ([(p.basis, p.scope, p.k_enc, p.claim)
                     for p in member_preds]
                    == [(p.basis, p.scope, p.k_enc, p.claim) for p in preds])
            for pred, member_pred in zip(preds, member_preds):
                if pred.claim in (CLAIM_EXACT_SET, CLAIM_SUPERSET):
                    assert member_pred.target == tuple(sorted(
                        move(pred.k_enc, t) for t in pred.target))
                else:
                    assert member_pred.target == pred.target
            for (_, k, _, obs, verdict), (_, _, _, member_obs, member_verdict) \
                    in zip(outcomes, verify.evaluate(member, member_preds)):
                assert member_verdict == verdict, (key, a, c)
                if isinstance(obs, FiberCount):
                    assert member_obs.count == obs.count
                    continue
                assert member_obs.cardinality == obs.cardinality
                assert set(member_obs.values) == {move(k, v)
                                                  for v in obs.values}


def _class_member(ctx, rows, rng):
    """A random member of the null class of rows: rows shifted by a I and
    conjugated by diag(1, mu) with N(mu) = 1."""
    (a, b), (c, d) = rows
    shift = rng.randrange(ctx.q2)
    mu = rng.choice(ctx.norm_preimage_encs(1))
    return ((ctx.add_enc(a, shift), ctx.mul_enc(b, mu)),
            (ctx.mul_enc(c, ctx.frob_enc(mu)), ctx.add_enc(d, shift)))


@pytest.mark.parametrize("q", (2, 3, 4))
def test_full_field_predictions_are_functions_of_the_null_class(towers, q):
    # what lets a full-field sweep predict once per class: every matrix
    # of the space gets the ordered predictions of the first of its class
    ctx = towers[q]
    first = {}
    for e in itertools.product(range(ctx.q2), repeat=4):
        rows = (e[0:2], e[2:4])
        got = predict_full_field(HermMatrix.from_encs(ctx, rows))
        assert first.setdefault(null_class(ctx, rows), got) == got, rows
    assert len(first) == q ** 3 * (q * q - q + 1)


@pytest.mark.parametrize("q", (5, 7, 8, 9))
def test_full_field_predictions_are_functions_of_the_null_class_sampled(
        towers, q):
    # both characteristics, so eigen2's even and odd root paths; every
    # fourth draw has m12 = 0 and every fifth m21 = 0, so keys with a
    # zero norm and the m12 m21 = 0 side of prop4 are met too
    ctx = towers[q]
    rng = random.Random(q)
    for i in range(400):
        [((a, b), (c, d))] = draw_matrices(rng, ctx.q2, 2, 1)
        rows = ((a, 0 if i % 4 == 0 else b), (0 if i % 5 == 0 else c, d))
        want = predict_full_field(HermMatrix.from_encs(ctx, rows))
        for _ in range(3):
            member = _class_member(ctx, rows, rng)
            assert null_class(ctx, member) == null_class(ctx, rows)
            assert (predict_full_field(HermMatrix.from_encs(ctx, member))
                    == want), (rows, member)


def _class_representatives(ctx):
    """The first matrix with m22 = 0 of each null class; every class has
    one, since shifts by a I fix the class."""
    reps = {}
    for a, b, c in itertools.product(range(ctx.q2), repeat=3):
        rows = ((a, b), (c, 0))
        reps.setdefault(null_class(ctx, rows), rows)
    return reps


@pytest.mark.parametrize("q", (2, 3, 4))
def test_full_field_outcomes_scale_with_the_matrix(towers, q):
    # what lets a full-field sweep share a passing class's outcomes with
    # its scale orbit: for every class and every lam != 0, lam M has the
    # ordered claims of M with its target sets scaled by lam, the same
    # verdicts and cardinalities, ranges scaled by lam, and the key that
    # scaled_null_classes gives the sweep
    ctx = towers[q]
    mul = ctx.mul_enc
    reps = _class_representatives(ctx)
    assert len(reps) == q ** 3 * (q * q - q + 1)
    for key, rows in reps.items():
        m = HermMatrix.from_encs(ctx, rows)
        preds = predict_full_field(m)
        outcomes = verify.evaluate(m, preds)
        for lam, lam_key in enumerate(scaled_null_classes(ctx, key), 1):
            lam_rows = tuple(tuple(mul(lam, e) for e in r) for r in rows)
            assert null_class(ctx, lam_rows) == lam_key, (rows, lam)
            lam_m = HermMatrix.from_encs(ctx, lam_rows)
            lam_preds = predict_full_field(lam_m)
            assert ([(p.basis, p.scope, p.k_enc, p.claim) for p in lam_preds]
                    == [(p.basis, p.scope, p.k_enc, p.claim) for p in preds])
            for pred, lam_pred in zip(preds, lam_preds):
                if pred.claim in (CLAIM_EXACT_SET, CLAIM_SUPERSET):
                    assert lam_pred.target == tuple(
                        sorted(mul(lam, t) for t in pred.target))
                else:
                    assert lam_pred.target == pred.target
            for (_, _, _, obs, verdict), (_, _, _, lam_obs, lam_verdict) in zip(
                    outcomes, verify.evaluate(lam_m, lam_preds)):
                assert lam_verdict == verdict, (rows, lam)
                assert lam_obs.cardinality == obs.cardinality
                assert set(lam_obs.values) == {mul(lam, v)
                                               for v in obs.values}


def _failing_on(classes, name="predict_full_field", key_of=null_class,
                kind=KIND_NUM0_PRIME):
    """verify's predictor name plus an exact_card 0 claim on level 0 of
    kind, which every range of kind breaks (a null-range, or a level-0
    subfield range, which holds 0), on the matrices whose key_of key is
    in classes."""
    predict = getattr(verify, name)
    injected = Prediction("injected", kind, 0, CLAIM_EXACT_CARD, 0)

    def predict_failing(m, *levels):
        preds = predict(m, *levels)
        if key_of(m.ctx, m.encs()) in classes:
            preds = preds + [injected]
        return preds
    return predict_failing


@pytest.mark.parametrize("whole_orbit", [False, True],
                         ids=["one-class", "whole-orbit"])
def test_failing_classes_do_not_share_with_their_orbit(monkeypatch, f3,
                                                       whole_orbit):
    # a class whose outcomes fail hands them to no other class of its
    # scale orbit: each is evaluated on its own, so failing rows carry
    # their own values; the class met first of its orbit fails, as a
    # later one would take the first one's passing outcomes
    first = {}
    for e in itertools.product(range(f3.q2), repeat=4):
        key = null_class(f3, (e[0:2], e[2:4]))
        orbit = frozenset(scaled_null_classes(f3, key))
        first.setdefault(orbit, key)
    orbit, key = next((o, k) for o, k in first.items() if len(o) > 1)
    failing = orbit if whole_orbit else {key}
    calls = _count_full_field_calls(monkeypatch)
    monkeypatch.setattr(verify, "predict_full_field", _failing_on(failing))
    report = run_exhaustive_2x2(f3, space="full")
    # the other 27 orbits are predicted once; a failing orbit once per
    # class, and one failing class once, plus once for the rest of its
    # orbit, which the next class met shares
    assert calls["predict"] == 27 + (len(orbit) if whole_orbit else 2)
    fails = [c for c in report["checks"] if c["verdict"] == "fail"]
    assert fails and report["summary"]["fail"] == len(fails)
    assert all(c["citation"] == "injected" for c in fails)
    for c in fails:
        rows = c["matrix"]
        assert null_class(f3, rows) in failing
        assert c["observed"]["values"] == list(
            num0_prime(HermMatrix.from_encs(f3, rows)).values)
    unkeyed = _unkeyed(monkeypatch, run_exhaustive_2x2, f3, space="full")
    # one bool, so that a mismatch does not diff two 3 MB texts
    same = cli._json_bytes(report) == cli._json_bytes(unkeyed)
    assert same


@pytest.mark.parametrize("pred", [
    Prediction("x", KIND_NUM_K, 1, CLAIM_MEMBER, True),
    Prediction("x", KIND_NUM0_PRIME_SUBFIELD, 0, CLAIM_MEMBER, True),
    Prediction("x", SCOPE_FIBER_ZERO, 0, CLAIM_EXACT_CARD, 1),
    Prediction("x", KIND_NUM0_PRIME, 0, "values_in_subfield", True),
], ids=["level-1", "subfield-kind", "fiber", "claim-type"])
def test_a_null_class_key_refuses_claims_its_class_does_not_fix(
        monkeypatch, f3, pred):
    # a claim off level 0, on a kind the class does not fix, or of a
    # type outside SCALE_COVARIANT_CLAIMS must not hand its outcome to
    # the other matrices of its class or of its scale orbit
    predict = verify.predict_full_field
    monkeypatch.setattr(verify, "predict_full_field",
                        lambda m: predict(m) + [pred])
    with pytest.raises(RuntimeError, match="null class"):
        run_exhaustive_2x2(f3, space="full")
    with pytest.raises(RuntimeError, match="null class"):
        run_random_nxn(f3, n=2, space="full", count=5)


# one datum of each claim type's shape (Prediction.target)
_TARGETS = {CLAIM_EXACT_SET: (0,), CLAIM_SUPERSET: (0,), CLAIM_EXACT_CARD: 1,
            CLAIM_LOWER_BOUND: 1, CLAIM_UPPER_BOUND: 1, CLAIM_EMPTY: None,
            CLAIM_LINE: None, CLAIM_MEMBER: True}


@pytest.mark.parametrize("kind", NULL_CLASS_KINDS)
@pytest.mark.parametrize("claim", SCALE_COVARIANT_CLAIMS)
def test_a_null_class_key_keeps_level_0_claims_of_each_covariant_type(
        monkeypatch, f3, claim, kind):
    # the accept side of the refusals above: a level-0 claim of any
    # type in SCALE_COVARIANT_CLAIMS on a kind in NULL_CLASS_KINDS is
    # shared across its null class and scale orbit; it may fail
    extra = Prediction("x", kind, 0, claim, _TARGETS[claim])
    predict = verify.predict_full_field
    monkeypatch.setattr(verify, "predict_full_field",
                        lambda m: predict(m) + [extra])
    for report in (run_exhaustive_2x2(f3, space="full"),
                   run_random_nxn(f3, n=2, space="full", count=5)):
        assert report["summary"]["by_citation"]["x"]


@pytest.mark.parametrize("pred", [
    Prediction("x", KIND_NUM_K_SUBFIELD, 0, "values_in_subfield", True),
    Prediction("x", KIND_NUM_K_SUBFIELD, 1, CLAIM_MEMBER, True),
    Prediction("x", KIND_NUM_K_SUBFIELD, 1, CLAIM_LINE),
    Prediction("x", KIND_NUM_K_SUBFIELD, 1, CLAIM_LOWER_BOUND, 1, True),
    Prediction("x", SCOPE_FIBER_ZERO, 1, CLAIM_EXACT_CARD, 1),
], ids=["claim-type", "membership", "line", "nonzero-only", "fiber"])
def test_a_subfield_class_key_refuses_claims_its_orbit_does_not_keep(
        monkeypatch, f3, pred):
    # a claim type outside SCALE_COVARIANT_CLAIMS, or off level 0 a
    # claim on whether 0 is in the range, on an F_q-line through 0 or on
    # the nonzero values, or a fiber count at a nonzero value, must not
    # hand its outcome to the other matrices of its class or of its
    # affine orbit; at level 0 the last four are kept
    predict = verify.predict_subfield
    for k_enc, refused in ((pred.k_enc, True), (0, pred.k_enc == 0)):
        extra = dataclasses.replace(pred, k_enc=k_enc)
        monkeypatch.setattr(verify, "predict_subfield",
                            lambda m, levels: predict(m, levels) + [extra])
        if refused:
            with pytest.raises(RuntimeError, match="affine orbit"):
                run_exhaustive_2x2(f3, space="subfield")
        else:
            run_exhaustive_2x2(f3, space="subfield")


@pytest.mark.parametrize("whole_orbit", [False, True],
                         ids=["one-class", "whole-orbit"])
def test_failing_subfield_classes_do_not_share_with_their_orbit(
        monkeypatch, f3, whole_orbit):
    # as for the null classes' scale orbits: a subfield class whose
    # outcomes fail is evaluated on its own, and so is each class of a
    # failing orbit, so failing rows carry their own values
    first = {}
    for m11, m12, m21, m22 in itertools.product(range(3), repeat=4):
        key = _subfield_key(f3, ((m11, m12), (m21, m22)))
        first.setdefault(frozenset(affine_subfield_classes(f3, key)), key)
    orbit, key = next((o, k) for o, k in first.items() if len(o) > 1)
    failing = orbit if whole_orbit else {key}
    calls = _count_rule_calls(monkeypatch)
    monkeypatch.setattr(verify, "predict_subfield",
                        _failing_on(failing, "predict_subfield",
                                    _subfield_key, KIND_NUM_K_SUBFIELD))
    report = run_exhaustive_2x2(f3, space="subfield")
    # the other 5 orbits are predicted once; a failing orbit once per
    # class, and one failing class once, plus once for the rest of its
    # orbit
    assert calls["predict"] == 5 + (len(orbit) if whole_orbit else 2)
    fails = [c for c in report["checks"] if c["verdict"] == "fail"]
    assert len(fails) == report["summary"]["fail"] == 3 * len(failing)
    assert all(c["citation"] == "injected" for c in fails)
    for c in fails:
        rows = c["matrix"]
        assert _subfield_key(f3, rows) in failing
        assert c["observed"]["values"] == list(
            num_k_subfield(HermMatrix.from_encs(f3, rows), 0).values)
    assert report == _unkeyed(monkeypatch, run_exhaustive_2x2, f3,
                              space="subfield")


@pytest.mark.parametrize("q,collect", [
    *((q, collect) for q in (2, 3, 4, 5, 7, 8, 9)
      for collect in ("all", "fails")),
    (11, "fails"), (13, "fails")])
def test_subfield_orbit_sharing_keeps_the_report_bytes(monkeypatch, towers,
                                                       q, collect):
    ctx = towers[q] if q in towers else build_tower(q)
    report = run_exhaustive_2x2(ctx, space="subfield", collect=collect)
    unkeyed = _unkeyed(monkeypatch, run_exhaustive_2x2, ctx,
                       space="subfield", collect=collect)
    # one bool, so that a mismatch does not diff two large texts
    same = cli._json_bytes(report) == cli._json_bytes(unkeyed)
    assert same


def _unkeyed(monkeypatch, runner, *args, **kw):
    """The report of a runner whose cases carry no key, so that every
    matrix is built, predicted and evaluated on its own."""
    sweep = verify._sweep

    def unkeyed_sweep(ctx, scope, cases, *rest):
        return sweep(ctx, scope, ((rows, predict, None)
                                  for rows, predict, _ in cases), *rest)

    with monkeypatch.context() as mp:
        mp.setattr(verify, "_sweep", unkeyed_sweep)
        return runner(*args, **kw)


def _count_full_field_calls(monkeypatch):
    calls = Counter()
    predict, range_of = verify.predict_full_field, verify.range_of

    def counting_predict(m):
        calls["predict"] += 1
        return predict(m)

    def counting_range_of(m, kind, k, **kw):
        calls[kind] += 1
        return range_of(m, kind, k, **kw)

    monkeypatch.setattr(verify, "predict_full_field", counting_predict)
    monkeypatch.setattr(verify, "range_of", counting_range_of)
    return calls


def test_full_field_sweep_predicts_and_evaluates_once_per_null_class(
        monkeypatch, f3):
    calls = _count_full_field_calls(monkeypatch)
    report = _clean(run_exhaustive_2x2(f3, space="full"))
    # 6,561 matrices, 189 null classes in 28 scale orbits, two level-0
    # kinds at most
    assert calls["predict"] <= 28
    assert calls[KIND_NUM_K] + calls[KIND_NUM0_PRIME] <= 2 * 28
    assert set(calls) <= {"predict", KIND_NUM_K, KIND_NUM0_PRIME}
    # every matrix is still tallied and reported, as when each matrix
    # was evaluated on its own
    assert len(report["checks"]) == report["summary"]["total"]
    assert report == _unkeyed(monkeypatch, run_exhaustive_2x2, f3,
                              space="full")
    assert calls["predict"] >= 28 + 6561


# at q = 3 the full space holds 3^8 = 6,561 matrices
@pytest.mark.parametrize("capacity,keyed", [(6560, False), (6561, True)])
def test_random_full_sweep_keys_on_the_null_class_when_every_class_fits(
        monkeypatch, f3, capacity, keyed):
    calls = _count_full_field_calls(monkeypatch)
    report = _clean(run_random_nxn(f3, n=2, space="full", count=400,
                                   capacity=capacity))
    # 400 draws repeat some of the 189 classes, in 28 scale orbits
    if keyed:
        assert calls["predict"] <= 28
    else:
        assert calls["predict"] == 400
    assert report == _unkeyed(monkeypatch, run_random_nxn, f3, n=2,
                              space="full", count=400, capacity=capacity)


def _keyed(monkeypatch, ctx, **kw):
    """Whether the cases of a random full-field sweep carry a key."""
    keys = []
    sweep = verify._sweep

    def spying_sweep(ctx, scope, cases, *rest):
        def spied():
            for case in cases:
                keys.append(case[2] is not None)
                yield case
        return sweep(ctx, scope, spied(), *rest)

    with monkeypatch.context() as mp:
        mp.setattr(verify, "_sweep", spying_sweep)
        run_random_nxn(ctx, n=2, space="full", count=1, **kw)
    return keys == [True]


def test_only_small_fields_key_random_draws_on_the_null_class(monkeypatch,
                                                              towers):
    # the default capacity 2^24 holds the q^8 matrices of the full space
    # up to q = 8 (2^24) and not at q = 9
    sizes = (2, 3, 4, 5, 7, 8, 9)
    assert [_keyed(monkeypatch, towers[q]) for q in sizes] \
        == [True] * 6 + [False]
    assert [_keyed(monkeypatch, towers[8], capacity=c)
            for c in (2 ** 24 - 1, 2 ** 24)] == [False, True]


def test_random_full_draws_at_q8_share_outcomes(monkeypatch, towers):
    ctx = towers[8]
    calls = _count_full_field_calls(monkeypatch)
    report = _clean(run_random_nxn(ctx, n=2, space="full", count=2000,
                                   collect=COLLECT_FAILS))
    assert calls["predict"] < 2000
    assert report == _unkeyed(monkeypatch, run_random_nxn, ctx, n=2,
                              space="full", count=2000,
                              collect=COLLECT_FAILS)


def test_fiber_predictions_observe_their_own_value(f3):
    # a fiber_zero prediction's k_enc is the value whose fiber it counts;
    # this matrix's fibers hold 3, 0 and 6 null vectors
    m = HermMatrix.from_encs(f3, ((0, 1, 0), (0, 0, 1), (1, 0, 0)))
    table = fiber_count(m, 0), fiber_count(m, 1), fiber_count(m, 2)
    assert [fc.count for fc in table] == [3, 0, 6]
    preds = [Prediction("x", SCOPE_FIBER_ZERO, a, CLAIM_EXACT_CARD, fc.count)
             for a, fc in ((1, table[1]), (0, table[0]), (2, table[2]))]
    outcomes = verify.evaluate(m, preds)
    assert [(k, obs, verdict) for _, k, _, obs, verdict in outcomes] \
        == [(1, table[1], PASS), (0, table[0], PASS), (2, table[2], PASS)]


def test_scope_dispatch(f2):
    report = run_scope(f2, SCOPE_SCALAR_FIBERS, n=2)
    assert report["config"]["scope"] == SCOPE_SCALAR_FIBERS
    with pytest.raises(ValueError):
        run_scope(f2, "everything")
    with pytest.raises(ValueError, match="unknown space 'nope'"):
        run_exhaustive_2x2(f2, space="nope")


# command line


# verify argument lists, the run_scope call each must match, and the
# sha256 of the report bytes; digests predate cmd_verify calling run_scope
CLI_SCOPES = (
    ("--p 3 --scope exhaustive-2x2", (3, "exhaustive-2x2", {}),
     "ead5ca97dd4e859e22efd67768483b9fa93d3cc93840cdace243f2034ae2f706"),
    ("--p 3 --scope random-nxn", (3, "random-nxn", {}),
     "c6bfba149e900fb07af86bbce1140159a5af9999a8d6e3986a5e3cd4000e9c8a"),
    ("--p 3 --scope direct-sums --count 12",
     (3, "direct-sums", {"count": 12}),
     "e4a7b5ea8ddbc89222bea56ea402eb3bdcd092a6b5561c857ddd9fd221b52313"),
    ("--p 3 --scope scalar-fibers --n 3", (3, "scalar-fibers", {"n": 3}),
     "01b06a99085faaaf39a3d943475ef19e449034d3a24f626fb3b0be6a43be0c7e"),
    ("--p 2 --scope random-nxn --space full --n 2 --count 40",
     (2, "random-nxn", {"space": "full", "n": 2, "count": 40}),
     "e6e2576d2d4449e3af4a98fa7d33cb4c73ab46b1f939d01b0ed2792eb3b4f953"),
    ("--p 2 --scope exhaustive-2x2 --space both",
     (2, "exhaustive-2x2", {"space": "both"}),
     "c85a600e73dce013990c12e429106d479e3a471363825100a9352871fc99a8c6"),
)


@pytest.mark.parametrize("argv,call,expect", CLI_SCOPES,
                         ids=[c[1][1] + "-" + str(i)
                              for i, c in enumerate(CLI_SCOPES)])
def test_cli_verify_writes_the_run_scope_report(tmp_path, argv, call, expect):
    dest = tmp_path / "report.json"
    assert main(["verify", *argv.split(), "--out", str(dest)]) == 0
    data = dest.read_bytes()
    p, scope, kw = call
    report = run_scope(build_tower(p), scope, **kw)
    text = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    assert data == text.encode("utf-8")
    assert hashlib.sha256(data).hexdigest() == expect


@pytest.mark.parametrize("collect", ["all", "fails"])
@pytest.mark.parametrize("call", [c[1] for c in CLI_SCOPES],
                         ids=[c[1][1] + "-" + str(i)
                              for i, c in enumerate(CLI_SCOPES)])
def test_report_writer_matches_the_plain_encoder(call, collect):
    p, scope, kw = call
    report = run_scope(build_tower(p), scope, collect=collect, **kw)
    assert cli._report_json(report) == cli._json_bytes(report)


_SHARED = [[1]]


def _row(matrix, verdict="pass", **extra):
    return {"citation": "prop2", "claim": "exact_card", "k": 0,
            "matrix": matrix, "observed": {"cardinality": 2, "mode": "exact"},
            "verdict": verdict, **extra}


@pytest.mark.parametrize("checks", [
    [],
    [_row([[0, 1], [2, 3]], note="extra")],
    [dict(_row([[0, 1], [2, 3]], "fail"),
          observed={"cardinality": 2, "mode": "exact", "values": [0, 5]})],
    # equal contents in two list objects, and one list in two rows
    [_row([[0, 1], [2, 3]]), _row([[0, 1], [2, 3]]),
     _row([[4, 5], [6, 7]], "fail")],
    [_row(_SHARED), _row(_SHARED), _row([[2]]), _row([[1]], "inapplicable")],
    ["not a row", _row([[1]]), {"k": 1}],
], ids=["empty", "extra-field", "observed-list", "equal-matrices",
        "shared-matrix", "foreign-rows"])
def test_report_writer_matches_the_plain_encoder_on_built_rows(checks):
    report = {"summary": {"total": len(checks)}, "checks": checks,
              "config": {"q": 3}, "affine_law": None}
    assert cli._report_json(report) == cli._json_bytes(report)


def test_report_rows_share_their_parts(monkeypatch):
    # each of the 104 outcomes of the q = 3 sweep (its full space
    # evaluates one null class per scale orbit, its subfield space one
    # class per affine orbit) gets one observed dict and each of its
    # 6,642 matrices one matrix list, shared by its 22,503 rows
    calls = Counter()
    observed_json = verify._observed_json

    def counting(obs, verdict):
        calls["observed"] += 1
        return observed_json(obs, verdict)

    monkeypatch.setattr(verify, "_observed_json", counting)
    checks = run_exhaustive_2x2(build_tower(3))["checks"]
    assert len(checks) == 22503
    assert calls["observed"] == 104
    assert len({id(c["observed"]) for c in checks}) == 104
    assert len({id(c["matrix"]) for c in checks}) == 6642
    for a, b in zip(checks, checks[1:]):
        assert (a["matrix"] is b["matrix"]) == (a["matrix"] == b["matrix"])


def test_cli_kind_choices_are_the_range_table():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    kind = next(a for a in sub.choices["range"]._actions if a.dest == "kind")
    assert tuple(kind.choices) == tuple(RANGE_KINDS)


@pytest.mark.parametrize("kind", [KIND_NUM0_PRIME, KIND_NUM0_PRIME_SUBFIELD])
def test_cli_null_kinds_refuse_a_nonzero_level(capsys, kind):
    argv = ["range", "--p", "3", "--matrix", "0,1;2,0", "--kind", kind]
    assert main(argv + ["--k", "2"]) == 2
    assert "level zero only, got level 2" in capsys.readouterr().err
    assert main(argv + ["--k", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["kind"] == kind


@pytest.mark.parametrize("kind", [KIND_NUM_K, KIND_NUM0_PRIME])
@pytest.mark.parametrize("k", ["4", "9", "-1"])
def test_cli_levels_outside_f_q_exit_two(capsys, kind, k):
    # 4 is a code of F_9 outside F_3, 9 is no code of F_9 at all
    argv = ["range", "--p", "3", "--matrix", "1,0;0,1", "--kind", kind]
    assert main(argv + ["--k", k]) == 2
    assert capsys.readouterr().err \
        == f"hermrange: level code must lie in F_q = [0, 3), got {k}\n"


def test_cli_sample_budget_over_the_bound_exits_three(capsys):
    # the bound is the larger of --capacity and 2^24, before any draw
    assert main(["range", "--p", "3", "--matrix", "1,0;0,1", "--capacity",
                 "0", "--sample-budget", str(2 ** 24 + 1)]) == 3
    assert capsys.readouterr().err.startswith(
        "hermrange: sample budget is 16777217, the bound is 16777216")


def test_cli_range_json(capsys):
    rc = main(["range", "--p", "2", "--matrix", "0,1;0,0",
               "--kind", "num0_prime"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["values"] == [1, 2, 3]
    assert doc["kind"] == "num0_prime"
    assert doc["mode"] == "exhaustive"
    assert doc["matrix"] == [[0, 1], [0, 0]]
    assert (doc["field"]["p"], doc["field"]["m"]) == (2, 1)
    # the nonzero null vectors: the level-0 cone of 10 less zero
    assert doc["witness_count"] == 9


def test_cli_range_csv(capsys):
    rc = main(["range", "--p", "2", "--matrix", "0,1;0,0",
               "--kind", "num0_prime", "--format", "csv"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "kind,k,value,value_poly"
    assert len(lines) == 4
    assert lines[1].startswith("num0_prime,0,1,")


def test_cli_range_sampled_is_deterministic(capsys):
    argv = ["range", "--p", "3", "--capacity", "1000", "--sample-budget",
            "100", "--matrix", "0,1,2,3;4,5,6,7;8,0,1,2;3,4,5,6"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert json.loads(first)["mode"] == "sampled"


def test_cli_matrix_file(tmp_path, capsys, f2):
    doc = {"field": f2.spec.to_json_dict(), "n": 2,
           "entries": [[0, 0], [0, 1]]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    rc = main(["range", "--matrix", str(path), "--kind", "num0_prime"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["values"] == [1]
    # flags must agree with the file's field block
    rc = main(["range", "--p", "3", "--matrix", str(path)])
    assert rc == 2
    assert "disagree" in capsys.readouterr().err


@pytest.mark.parametrize("flags,disagree", [
    ("--m 2", "m=2"), ("--p 3", "p=3"), ("--p 2 --m 2", "p=2 m=2"),
    ("--p 3 --m 1", "p=3 m=1"), ("--m 1", None), ("--p 2", None),
    ("--p 2 --m 1", None),
], ids=["m", "p", "p-and-m", "p-and-default-m", "m-agrees", "p-agrees",
        "both-agree"])
def test_cli_each_field_flag_given_must_agree_with_the_file(
        tmp_path, capsys, f2, flags, disagree):
    # --m alone is compared too; it is not ignored for want of --p
    doc = {"field": f2.spec.to_json_dict(), "entries": [[0, 1], [0, 0]]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["range", "--matrix", str(path)]) == 0
    plain = capsys.readouterr().out
    rc = main(["range", *flags.split(), "--matrix", str(path)])
    out, err = capsys.readouterr()
    if disagree is None:
        assert (rc, out) == (0, plain)
    else:
        assert (rc, out) == (2, "")
        assert err == (f"hermrange: field flags {disagree} disagree with the "
                       "matrix file's p=2 m=1\n")


def test_cli_fibers(capsys):
    rc = main(["fibers", "--p", "5", "--matrix", "1,0;0,1",
               "--format", "csv"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "value,value_poly,count"
    assert lines[1] == "0,0,9"
    assert len(lines) == 6
    rc = main(["fibers", "--p", "5", "--matrix", "1,0;0,1"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["total"] == 9
    assert doc["fibers"][0] == {"value": 0, "count": 9}


def test_cli_fibers_takes_no_seed(capsys):
    # fibers draws nothing, so it has no --seed to ignore
    assert main(["fibers", "--p", "5", "--matrix", "1,0;0,1",
                 "--seed", "0"]) == 2
    assert "unrecognized arguments: --seed 0" in capsys.readouterr().err


def test_cli_verify(capsys):
    rc = main(["verify", "--p", "2", "--scope", "exhaustive-2x2"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["total"] == 840
    assert doc["affine_law"]["decidable"] is False
    rc = main(["verify", "--p", "2", "--scope", "direct-sums", "--count",
               "6", "--format", "csv"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "citation,claim,k,matrix,verdict,observed"
    assert len(lines) == 13


def test_cli_random_full_sweep_defaults_to_two_by_two(tmp_path, capsys):
    # the full-field rules cover n = 2 only, so a full-space random-nxn
    # without --n draws 2 by 2 matrices; --n 3 is still refused
    argv = ["verify", "--p", "3", "--scope", "random-nxn", "--space", "full"]
    out = {}
    for extra in ([], ["--n", "2"]):
        dest = tmp_path / f"report{len(extra)}.json"
        assert main([*argv, *extra, "--out", str(dest)]) == 0
        out[len(extra)] = dest.read_bytes()
    assert out[0] == out[2]
    assert json.loads(out[0])["config"]["n"] == 2
    assert main([*argv, "--n", "3"]) == 2
    assert "full-field rules cover n=2 only" in capsys.readouterr().err
    # so a field too large for the 2 by 2 cone meets the capacity check
    assert main(["verify", "--p", "1031", "--scope", "random-nxn",
                 "--space", "full"]) == 3
    assert "random 2x2 full-field sweep" in capsys.readouterr().err


def test_cli_verify_can_collect_failing_rows_only(tmp_path):
    argv = ["verify", "--p", "3", "--scope", "exhaustive-2x2"]
    docs = {}
    for collect in ("all", "fails"):
        dest = tmp_path / f"{collect}.json"
        assert main([*argv, "--collect", collect, "--out", str(dest)]) == 0
        docs[collect] = json.loads(dest.read_bytes())
    assert docs["fails"]["checks"] == []
    assert len(docs["all"]["checks"]) == docs["all"]["summary"]["total"]
    assert docs["fails"]["summary"] == docs["all"]["summary"]
    assert docs["fails"]["config"] == docs["all"]["config"]


def test_cli_output_file(tmp_path, capsys):
    dest = tmp_path / "out.json"
    rc = main(["range", "--p", "2", "--matrix", "0,1;0,0",
               "--out", str(dest)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    # default kind is the plain level-0 range, which picks up 0 itself
    assert json.loads(dest.read_text(encoding="utf-8"))["values"] == [0, 1, 2, 3]


def test_cli_error_codes(capsys, tmp_path):
    # no field anywhere
    assert main(["range", "--matrix", "0,1;0,0"]) == 2
    assert capsys.readouterr().err.startswith("hermrange:")
    # ragged inline matrix
    assert main(["range", "--p", "2", "--matrix", "0,1;2"]) == 2
    # over capacity without a sample budget
    assert main(["range", "--p", "3", "--capacity", "100",
                 "--matrix", "0,1,2;3,4,5;6,7,8"]) == 3
    # argparse rejections come back as exit code 2
    assert main(["range", "--p", "2", "--matrix", "0,1;0,0",
                 "--kind", "nope"]) == 2
    assert main([]) == 2
    # missing matrix file
    assert main(["range", "--p", "2",
                 "--matrix", str(tmp_path / "absent.json")]) == 2
    capsys.readouterr()


def test_cli_non_utf8_matrix_file_names_the_file(capsys, tmp_path):
    src = tmp_path / "m.json"
    src.write_bytes(b'{"entries": [[1]]}\xff')
    for command in ("range", "fibers"):
        assert main([command, "--p", "3", "--matrix", str(src)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"hermrange: cannot read matrix file {str(src)!r}: 'utf-8' codec")
        assert "Traceback" not in err


@pytest.mark.parametrize("doc", [
    {"entries": [[None, 1], [0, 0]]},
    {"entries": 5},
    {"entries": [[0, True], [1, 0]]},
    {"entries": [0, 1]},
    {"n": None, "entries": [[0, 1], [1, 0]]},
], ids=["null-entry", "scalar-entries", "bool-entry", "flat-entries",
        "null-n"])
def test_cli_malformed_matrix_file_exits_two(capsys, tmp_path, doc):
    src = tmp_path / "m.json"
    src.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["range", "--p", "3", "--matrix", str(src)]) == 2
    assert capsys.readouterr().err.startswith("hermrange: matrix file")


def test_cli_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_negative_sizes_exit_two(capsys, f3):
    with pytest.raises(ValueError):
        run_random_nxn(f3, count=-1)
    with pytest.raises(ValueError):
        run_direct_sums(f3, count=-1)
    for scope in ("random-nxn", "direct-sums"):
        assert main(["verify", "--p", "3", "--scope", scope,
                     "--count", "-3"]) == 2
    for budget in ("0", "-5"):
        assert main(["range", "--p", "3", "--matrix", "0,1;2,0",
                     "--capacity", "1", "--sample-budget", budget]) == 2
    capsys.readouterr()
    for extra in ([], ["--sample-budget", "3"]):
        assert main(["range", "--p", "3", "--matrix", "1,0;0,1", "--k", "1",
                     "--capacity", "-5"] + extra) == 2
        assert "--capacity" in capsys.readouterr().err


def test_cli_sampled_empty_level_set_exits_two(capsys, tmp_path):
    # x^2 = 2 has no solution in F_3: refuse instead of sampling forever
    src = tmp_path / "m.json"
    src.write_text(json.dumps({"entries": [[1]]}), encoding="utf-8")
    assert main(["range", "--p", "3", "--matrix", str(src),
                 "--kind", "num_k_subfield", "--k", "2", "--capacity", "1",
                 "--sample-budget", "3"]) == 2
    assert "no vector" in capsys.readouterr().err


@pytest.mark.parametrize("scope", ["random-nxn", "scalar-fibers"])
@pytest.mark.parametrize("n", ["0", "1", "-1"])
def test_cli_verify_rejects_sizes_below_two(capsys, scope, n):
    # a given --n is passed on, never swapped for the default sizes
    assert main(["verify", "--p", "3", "--scope", scope, "--n", n,
                 "--count", "1"]) == 2
    assert f"dimension must be at least 2, got {n}" in capsys.readouterr().err


def test_cli_unwritable_out_exits_two(capsys, tmp_path):
    # exit 1 means only "a sweep found a failing claim"
    missing = tmp_path / "absent" / "x.json"
    assert main(["range", "--p", "3", "--matrix", "0,1;2,0",
                 "--out", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"hermrange: cannot write {missing}:")
    assert "Traceback" not in err
    assert main(["verify", "--p", "2", "--scope", "scalar-fibers",
                 "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(
        f"hermrange: cannot write {tmp_path}:")


def test_cli_unexpected_exception_exits_four(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("hermrange.cli.run_scope", broken)
    assert main(["verify", "--p", "2", "--scope", "direct-sums",
                 "--count", "1"]) == 4
    assert capsys.readouterr().err == \
        "hermrange: internal error: RuntimeError: boom\n"


def test_exhaustive_sweep_over_capacity_raises_before_work(monkeypatch, f2):
    # q = 2: the full space holds 2^8 matrices, the subfield space 2^4,
    # and "auto" sweeps both
    def no_work(*args, **kwargs):
        raise AssertionError("a matrix was evaluated")

    monkeypatch.setattr(verify, "evaluate", no_work)
    for space, total in (("auto", 272), ("both", 272), ("full", 256),
                         ("subfield", 16)):
        with pytest.raises(CapacityError, match=f"holds {total} matrices"):
            run_exhaustive_2x2(f2, space=space, capacity=total - 1)
    monkeypatch.undo()
    assert run_exhaustive_2x2(f2, capacity=272)["summary"]["total"] == 840


def test_random_subfield_sweep_over_capacity_raises_before_work(monkeypatch,
                                                              f3):
    # q = 3, n = 3: three level cones of at most 2 * 3^2 = 18 vectors
    def no_work(*args, **kwargs):
        raise AssertionError("a matrix was evaluated")

    monkeypatch.setattr(verify, "evaluate", no_work)
    with pytest.raises(CapacityError,
                       match="up to 54 vectors a matrix, capacity is 53"):
        run_random_nxn(f3, n=3, count=5, capacity=53)
    monkeypatch.undo()
    assert run_random_nxn(f3, n=3, count=5, capacity=54)["summary"]["total"]


def test_sweeps_check_their_largest_cone_before_work(monkeypatch, f2):
    # at q = 2 a full-field cone holds at most 12 vectors at n = 2 and 48
    # at n = 3, a subfield cone 2^(n - 1); the largest decides, and a
    # single direct sum is 2x2; random-nxn draws 5 matrices, since the
    # capacity bounds its count too
    cases = (
        (lambda c: run_scalar_fibers(f2, capacity=c), "scalar-fibers 5x5", 16),
        (lambda c: run_direct_sums(f2, count=2, capacity=c),
         "direct-sums 3x3", 48),
        (lambda c: run_direct_sums(f2, count=1, capacity=c),
         "direct-sums 2x2", 12),
        (lambda c: run_random_nxn(f2, n=2, space="full", count=5,
                                  capacity=c),
         "random 2x2 full-field", 12))

    def no_work(*args, **kwargs):
        raise AssertionError("a matrix was evaluated")

    monkeypatch.setattr(verify, "evaluate", no_work)
    for call, sweep, total in cases:
        with pytest.raises(CapacityError, match=(
                f"^{sweep} sweep enumerates up to {total} vectors a matrix, "
                f"capacity is {total - 1}$")):
            call(total - 1)
    monkeypatch.undo()
    for call, _, total in cases:
        assert _clean(call(total))["summary"]["total"]


def test_random_sweeps_bound_their_count_by_the_capacity(monkeypatch, f2):
    # q = 2 cones hold at most 48 vectors, so the count decides; a cone
    # over capacity keeps its own message
    def no_work(*args, **kwargs):
        raise AssertionError("a matrix was evaluated")

    cases = (
        (lambda c, k: run_random_nxn(f2, n=2, space="full", count=c,
                                     capacity=k), "random 2x2 full-field"),
        (lambda c, k: run_random_nxn(f2, n=3, count=c, capacity=k),
         "random 3x3 subfield"),
        (lambda c, k: run_direct_sums(f2, count=c, capacity=k),
         "direct-sums"))
    monkeypatch.setattr(verify, "evaluate", no_work)
    for call, sweep in cases:
        with pytest.raises(CapacityError, match=(
                f"^{sweep} sweep draws 101 matrices, capacity is 100$")):
            call(101, 100)
        with pytest.raises(CapacityError, match="vectors a matrix"):
            call(10 ** 20, 1)
    monkeypatch.undo()
    for call, _ in cases:
        assert _clean(call(100, 100))["summary"]["total"]


@pytest.mark.parametrize("scope", ["random-nxn", "direct-sums"])
def test_cli_random_sweep_with_a_huge_count_exits_three_at_once(capsys,
                                                                 scope):
    start = time.perf_counter()
    assert main(["verify", "--p", "3", "--scope", scope,
                 "--count", "99999999999999999999"]) == 3
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.endswith(
        " sweep draws 99999999999999999999 matrices, capacity is "
        "16777216\n")


def test_scalar_fibers_past_capacity_fail_at_once():
    # q = 2^20: the n = 2 cone (2^20 vectors) fits the capacity and would
    # take minutes, the n = 3 cone (2^40) does not, so nothing may start
    ctx = build_tower(2, 20)
    start = time.perf_counter()
    with pytest.raises(CapacityError, match="scalar-fibers 3x3 sweep"):
        run_scalar_fibers(ctx)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("argv", [
    "--p 2 --m 20 --scope scalar-fibers",
    "--p 29 --scope direct-sums --count 2",
    "--p 1031 --scope random-nxn --space full --n 2 --count 1",
], ids=["scalar-fibers-q2^20", "direct-sums-q29", "random-full-q1031"])
def test_cli_sweep_over_capacity_exits_three_with_sweep_wording(capsys, argv):
    # verify takes no sample budget, so its refusals must not suggest one
    assert main(["verify", *argv.split()]) == 3
    err = capsys.readouterr().err
    assert err.startswith("hermrange: ") and " sweep enumerates up to " in err
    assert "sample budget" not in err


@pytest.mark.parametrize("q", (2, 9))
def test_sweeps_refuse_a_huge_n_without_building_its_bound(towers, q):
    # a cone bound at n is at least 2^(n - 1); at these n its decimal
    # digits pass CPython's 4300-digit conversion limit, and 9^29999999
    # alone takes most of a minute to build
    ctx = towers[q]
    for call, sweep, n in (
            (lambda: run_random_nxn(ctx, n=15000), "random", 15000),
            (lambda: run_random_nxn(ctx, n=30000000), "random", 30000000),
            (lambda: run_scalar_fibers(ctx, n_values=(3000000,)),
             "scalar-fibers", 3000000)):
        start = time.perf_counter()
        with pytest.raises(CapacityError, match=(
                f"^{sweep} {n}x{n} .*sweep enumerates up to at least "
                f"2\\^{n - 1} vectors a matrix, capacity is 16777216$")) as exc:
            call()
        assert time.perf_counter() - start < 2.0
        assert len(str(exc.value)) < 200


def test_the_huge_n_refusal_starts_past_the_capacity_bit_length(f2):
    # capacity 7 has bit length 3: n = 4 keeps the built bound 2^3, and
    # from n = 5 on the bound is named by its power of two
    with pytest.raises(CapacityError, match=(
            "^scalar-fibers 4x4 sweep enumerates up to 8 vectors a matrix, "
            "capacity is 7$")):
        run_scalar_fibers(f2, n_values=(4,), capacity=7)
    with pytest.raises(CapacityError, match=(
            "^scalar-fibers 5x5 sweep enumerates up to at least 2\\^4 "
            "vectors a matrix, capacity is 7$")):
        run_scalar_fibers(f2, n_values=(5,), capacity=7)


@pytest.mark.parametrize("argv", [
    "--p 2 --scope random-nxn --n 15000",
    "--p 3 --m 2 --scope random-nxn --n 30000000",
    "--p 2 --scope scalar-fibers --n 3000000",
    "--p 3 --m 2 --scope scalar-fibers --n 3000000",
], ids=["random-q2", "random-q9", "scalar-fibers-q2", "scalar-fibers-q9"])
def test_cli_sweep_with_a_huge_n_exits_three_at_once(capsys, argv):
    start = time.perf_counter()
    assert main(["verify", *argv.split()]) == 3
    assert time.perf_counter() - start < 2.0
    err = capsys.readouterr().err
    assert len(err) < 200
    assert " sweep enumerates up to at least 2^" in err


@pytest.mark.parametrize("argv,err", [
    ("range --p 2 --m 20 --kind num_k --k 0 --matrix {zero}",
     "hermrange: cone may hold up to at least 2^15980 vectors, capacity is "
     "16777216; pass a sample budget for a witness subset\n"),
    ("verify --p 2 --m 20 --scope scalar-fibers --n 13289 "
     f"--capacity {10 ** 4000}",
     "hermrange: scalar-fibers 13289x13289 sweep enumerates up to at least "
     "2^265760 vectors a matrix, capacity is at least 2^13287\n"),
    (f"verify --p 3 --scope random-nxn --count {10 ** 4100} "
     f"--capacity {10 ** 4000}",
     "hermrange: random 3x3 subfield sweep draws at least 2^13619 matrices, "
     "capacity is at least 2^13287\n"),
    ("verify --p 1048573 --scope exhaustive-2x2 --space full",
     "hermrange: exhaustive 2x2 sweep over full holds at least 2^159 "
     "matrices, capacity is 16777216\n"),
], ids=["range-400x400", "scalar-fibers-capacity-10^4000",
        "random-count-10^4100", "exhaustive-full-q1048573"])
def test_cli_bounds_past_the_digit_limit_exit_three_at_once(capsys, tmp_path,
                                                           argv, err):
    # the two cone bounds pass CPython's 4300-digit limit for writing an
    # int, and the count, the capacity and the q^8 = 1048573^8 matrices
    # of a full space (49 digits) would pass 40 digits: each is written
    # as the power of two it reaches
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"entries": [[0] * 400] * 400}),
                    encoding="utf-8")
    start = time.perf_counter()
    assert main(argv.format(zero=zero).split()) == 3
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == err
    assert len(err) < 200


def test_bounds_are_written_in_full_up_to_forty_digits():
    assert count_text(10 ** 40 - 1) == "9" * 40
    assert count_text(10 ** 40) == "at least 2^132"
    assert count_text(2 ** 40) == "1099511627776"


@pytest.mark.parametrize("argv,total", [
    ("--p 2 --m 20", 2 ** 40),
    ("--p 3 --m 12", 3 ** 12 * 2 * 3 ** 12),
], ids=["q2^20", "q3^12"])
def test_cli_random_subfield_over_capacity_exits_three(capsys, argv, total):
    assert main(["verify", *argv.split(), "--scope", "random-nxn", "--n", "2",
                 "--count", "1"]) == 3
    assert capsys.readouterr().err == (
        f"hermrange: random 2x2 subfield sweep enumerates up to {total} "
        "vectors a matrix, capacity is 16777216\n")


@pytest.mark.parametrize("runner", [run_exhaustive_2x2, run_random_nxn,
                                    run_scalar_fibers, run_direct_sums],
                         ids=lambda r: r.__name__)
def test_runners_refuse_an_unknown_collect_policy_before_work(monkeypatch, f2,
                                                              runner):
    def no_work(*args, **kwargs):
        raise AssertionError("a matrix was evaluated")

    monkeypatch.setattr(verify, "evaluate", no_work)
    with pytest.raises(ValueError, match="unknown collect policy 'some'"):
        runner(f2, collect="some")


@pytest.mark.parametrize("argv,total", [
    ("--p 1031", 1031 ** 4),
    ("--p 101 --space full", 101 ** 8),
], ids=["q1031-auto", "q101-full"])
def test_cli_exhaustive_over_capacity_exits_three(capsys, argv, total):
    assert main(["verify", *argv.split(), "--scope", "exhaustive-2x2"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("hermrange: exhaustive 2x2 sweep")
    assert f"holds {total} matrices, capacity is 16777216" in err


@pytest.mark.parametrize("argv", [
    "range --p 1000000007 --matrix 1,2;3,4 --kind num0_prime "
    "--sample-budget 3",
    "range --p 2 --m 30 --matrix 1,2;3,4 --kind num0_prime "
    "--sample-budget 3",
    "verify --p 2 --m 30 --scope random-nxn --count 1",
    "verify --p 3 --m 1000000000 --scope random-nxn --count 1",
], ids=["large-p", "large-m", "verify-large-m", "huge-m"])
def test_cli_field_size_bound_exits_two(capsys, argv):
    assert main(argv.split()) == 2
    assert "exceeds the field-size bound 1048576 = 2^20" \
        in capsys.readouterr().err


def test_cli_field_size_bound_keeps_the_tower_messages(capsys, tmp_path):
    # an invalid p or m is named as such, whatever the size of p^m
    for argv, msg in ((["--p", "4", "--m", "30"], "p must be prime, got 4"),
                      (["--p", "1"], "p must be prime, got 1"),
                      (["--p", "3", "--m", "0"], "m must be at least 1, got 0")):
        assert main(["verify", *argv, "--scope", "random-nxn"]) == 2
        assert capsys.readouterr().err == f"hermrange: {msg}\n"
    # 2^20 itself is allowed, and the bound covers a file's field block
    cli._check_field_size(2, 20)
    cli._check_field_size(1000003, 1)
    src = tmp_path / "m.json"
    src.write_text(json.dumps({
        "field": {"p": 2, "m": 21, "base_modulus": [], "ext_modulus": []},
        "entries": [[1]]}), encoding="utf-8")
    assert main(["range", "--matrix", str(src)]) == 2
    assert "q = 2^21 exceeds" in capsys.readouterr().err


def test_failing_claim_reaches_the_report(monkeypatch, tmp_path, f2):
    # a false claim: 0 is not in the level-0 range, which always holds
    # <0, M 0> = 0
    predict = verify.predict_full_field

    def with_false_claim(m):
        return list(predict(m)) + [
            Prediction("false-claim", KIND_NUM_K, 0, CLAIM_MEMBER, False)]

    monkeypatch.setattr(verify, "predict_full_field", with_false_claim)
    report = run_scope(f2, "exhaustive-2x2")
    rows = [c for c in report["checks"] if c["citation"] == "false-claim"]
    assert len(rows) == 256  # every full-field matrix at q = 2
    assert all(c["verdict"] == "fail" and 0 in c["observed"]["values"]
               for c in rows)
    assert report["summary"]["fail"] == 256
    assert report["summary"]["by_citation"]["false-claim"] == {
        "pass": 0, "fail": 256, "inapplicable": 0}
    passing = [c for c in report["checks"] if c["verdict"] != "fail"]
    assert passing and all("values" not in c["observed"] for c in passing)

    dest = tmp_path / "report.json"
    assert main(["verify", "--p", "2", "--scope", "exhaustive-2x2",
                 "--out", str(dest)]) == 1
    text = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    assert dest.read_bytes() == text.encode("utf-8")


@pytest.mark.parametrize("content,msg", [
    (None, "bad inline matrix '1,x;2,3'"),
    ("not json", "is not JSON"),
    ('{"n": 2}', "lacks an entries table"),
    ('{"field": {"p": 3, "m": 1}, "entries": [[1]]}',
     "malformed field spec"),
    ('{"field": {"p": 3, "m": 1, "base_modulus": [0, 1], '
     '"ext_modulus": [[2], [0], [1]]}, "entries": [[1]]}',
     "does not name the canonical tower"),
    ('{"field": {"p": 3.9, "m": 1.2, "base_modulus": "01", '
     '"ext_modulus": ["1", "0", "1"]}, "entries": [[1]]}',
     "malformed field spec"),
    ('{"field": {"p": "3", "m": 1, "base_modulus": [0, 1], '
     '"ext_modulus": [[1], [0], [1]]}, "entries": [[1]]}',
     "malformed field spec"),
], ids=["inline-non-integer", "not-json", "no-entries", "field-missing-keys",
        "non-canonical-modulus", "field-non-integers", "field-string-p"])
def test_cli_matrix_input_refusals_exit_two(capsys, tmp_path, content, msg):
    if content is None:
        argv = ["--p", "3", "--matrix", "1,x;2,3"]
    else:
        src = tmp_path / "m.json"
        src.write_text(content, encoding="utf-8")
        argv = ["--matrix", str(src)]
    assert main(["range", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("hermrange: ") and msg in err
    assert "Traceback" not in err
