"""Command line front end.

Three subcommands: `range` computes one range of one matrix, `verify`
runs a prediction-versus-enumeration sweep preset, `fibers` tabulates
the null fibers of a subfield matrix.  All output is deterministic for
a fixed argument list, including the seed of randomized sweeps.

The verify JSON writer, _report_json, encodes each distinct report row
once instead of every row in full; its bytes are those of _json_bytes.

Exit codes: 0 success, 1 verification found a failing claim, 2 bad
usage or input (an output file that cannot be written, and a field
above MAX_FIELD_SIZE elements, included), 3 enumeration over capacity,
4 internal error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys

from .fields import (FieldCtx, FieldSpec, _is_prime, build_tower,
                     ctx_from_spec)
from .hermitian import DEFAULT_CAPACITY, CapacityError, HermMatrix
from .ranges import KIND_NUM_K, RANGE_KINDS, fiber_table, range_of
from .verify import COLLECT_ALL, COLLECT_FAILS, VERIFY_SCOPES, run_scope

# Largest F_q the command line builds: it bounds the q-length tables
# (the F_q log/exp and the walk's fibers) that a tower builds on first use.
# build_tower itself is unbounded.
MAX_FIELD_SIZE = 1 << 20


def _check_field_size(p: int, m: int) -> None:
    """Refuse q = p^m above MAX_FIELD_SIZE before any table is built; the
    product stops once past the bound, so a huge m is cheap.  An m below 1
    or a small non-prime p is left to the tower's own message."""
    if m < 1 or (p <= MAX_FIELD_SIZE and not _is_prime(p)):
        return
    q = 1
    for _ in range(m):
        q *= p
        if q > MAX_FIELD_SIZE:
            raise ValueError(f"q = {p}^{m} exceeds the field-size bound "
                             f"{MAX_FIELD_SIZE} = 2^20")


def _resolve_ctx(args, file_spec: FieldSpec | None) -> FieldCtx:
    # a field block in a matrix file must agree with each --p/--m flag given
    if file_spec is not None:
        given = {k: v for k, v in (("p", args.p), ("m", args.m))
                 if v is not None}
        if any(v != getattr(file_spec, k) for k, v in given.items()):
            flags = " ".join(f"{k}={v}" for k, v in given.items())
            raise ValueError(
                f"field flags {flags} disagree with the "
                f"matrix file's p={file_spec.p} m={file_spec.m}")
        _check_field_size(file_spec.p, file_spec.m)
        return ctx_from_spec(file_spec)
    if args.p is None:
        raise ValueError("no field given: pass --p (and --m) or a matrix "
                         "file with a field block")
    m = 1 if args.m is None else args.m
    _check_field_size(args.p, m)
    return build_tower(args.p, m)


def _parse_inline(text: str) -> tuple[tuple[int, ...], ...]:
    try:
        rows = tuple(tuple(int(x) for x in row.split(","))
                     for row in text.split(";"))
    except ValueError as exc:
        raise ValueError(f"bad inline matrix {text!r}: {exc}") from exc
    if not rows or any(len(r) != len(rows) for r in rows):
        raise ValueError(f"inline matrix {text!r} is not square")
    return rows


def _load_matrix(args) -> tuple[FieldCtx, HermMatrix]:
    text = args.matrix
    if "," in text or ";" in text:
        ctx = _resolve_ctx(args, None)
        return ctx, HermMatrix.from_encs(ctx, _parse_inline(text))
    try:
        with open(text, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read matrix file {text!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"matrix file {text!r} is not JSON: {exc}") from exc
    if not isinstance(doc, dict) or "entries" not in doc:
        raise ValueError(f"matrix file {text!r} lacks an entries table")
    spec = None
    if "field" in doc:
        spec = FieldSpec.from_json_dict(doc["field"])
    ctx = _resolve_ctx(args, spec)
    entries = doc["entries"]
    # bool is a subclass of int, but JSON true/false are not codes
    if not (isinstance(entries, list) and all(
            isinstance(r, list) and all(type(c) is int for c in r)
            for r in entries)):
        raise ValueError(
            f"matrix file {text!r}: entries must be a list of lists of integers")
    n = doc.get("n", len(entries))
    if type(n) is not int or len(entries) != n or any(len(r) != n for r in entries):
        raise ValueError(f"matrix file {text!r}: entries are not {n}x{n}")
    return ctx, HermMatrix.from_encs(ctx, entries)


def _write(args, text: str) -> None:
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {args.out or 'stdout'}: {exc}") from exc


def _json_bytes(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _report_json(report: dict) -> str:
    """_json_bytes(report) for a verify report, encoding each distinct
    row once.

    A row of the six fields citation, claim, k, matrix, observed and
    verdict is written as a head (citation, claim, k), its matrix and a
    tail (observed, verdict), the order sort_keys gives.  The head and
    tail are encoded once per distinct citation, claim, k, verdict and
    observed dict object, which the rows of one outcome share, and the
    matrix once while consecutive rows hold the same list object, as the
    rows of one matrix do.  Any other row, or a row with a value that
    cannot be hashed, is encoded whole.  Equal heads must encode alike,
    which holds for the str and int values the runners write (not for 1
    beside True or 1.0).
    """
    ends: dict = {}
    last_matrix = matrix_text = None
    out = ["{"]
    for name in sorted(report):
        value = report[name]
        out += (_encode(name), ":")
        if name != "checks" or type(value) is not list:
            out += (_encode(value), ",")
            continue
        out.append("[")
        for row in value:
            try:
                # six fields, each read below: exactly the row fields
                if len(row) != 6:
                    raise KeyError
                matrix, observed = row["matrix"], row["observed"]
                key = (row["citation"], row["claim"], row["k"],
                       row["verdict"], id(observed))
                pair = ends.get(key)
            except (KeyError, TypeError):
                out += (_encode(row), ",")
                continue
            if pair is None:
                # the report holds observed, so its id is not reused here
                pair = ends[key] = (
                    '{"citation":%s,"claim":%s,"k":%s,"matrix":' % (
                        _encode(key[0]), _encode(key[1]), _encode(key[2])),
                    ',"observed":%s,"verdict":%s},' % (
                        _encode(observed), _encode(key[3])))
            if matrix is not last_matrix:
                last_matrix, matrix_text = matrix, _encode(matrix)
            out += (pair[0], matrix_text, pair[1])
        if value:
            out[-1] = out[-1][:-1]  # the last row's comma
        out += ("]", ",")
    if report:
        out.pop()
    out.append("}\n")
    return "".join(out)


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def cmd_range(args, ctx: FieldCtx, m: HermMatrix) -> int:
    kw = {"capacity": args.capacity}
    if args.sample_budget is not None:
        kw["sample_budget"] = args.sample_budget
        kw["rng"] = random.Random(args.seed)
    rs = range_of(m, args.kind, args.k, **kw)
    if args.fmt == "json":
        payload = dict(rs.to_json_dict(), field=ctx.spec.to_json_dict(),
                       matrix=[list(r) for r in m.encs()])
        _write(args, _json_bytes(payload))
    else:
        _write(args, _csv_text(("kind", "k", "value", "value_poly"),
                               rs.csv_rows()))
    return 0


def cmd_verify(args, ctx: FieldCtx) -> int:
    report = run_scope(ctx, args.scope, n=args.n, count=args.count,
                       space=args.space, seed=args.seed, collect=args.collect,
                       capacity=args.capacity)
    if args.fmt == "json":
        _write(args, _report_json(report))
    else:
        # one cell text per matrix list, which the rows of a matrix share
        rows = []
        last_matrix = cell = None
        for c in report["checks"]:
            if c["matrix"] is not last_matrix:
                last_matrix = c["matrix"]
                cell = ";".join(",".join(str(e) for e in r)
                                for r in last_matrix)
            rows.append((c["citation"], c["claim"], c["k"], cell, c["verdict"],
                         c["observed"].get("cardinality",
                                           c["observed"].get("count"))))
        _write(args, _csv_text(
            ("citation", "claim", "k", "matrix", "verdict", "observed"), rows))
    return 1 if report["summary"]["fail"] else 0


def cmd_fibers(args, ctx: FieldCtx, m: HermMatrix) -> int:
    table = fiber_table(m, capacity=args.capacity)
    if args.fmt == "json":
        payload = {
            "field": ctx.spec.to_json_dict(),
            "matrix": [list(r) for r in m.encs()],
            "fibers": [{"value": fc.value, "count": fc.count}
                       for fc in table],
            "total": sum(fc.count for fc in table),
        }
        _write(args, _json_bytes(payload))
    else:
        _write(args, _csv_text(
            ("value", "value_poly", "count"),
            [(fc.value, ctx.poly_str(fc.value), fc.count) for fc in table]))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hermrange",
        description="Ranges of matrices over F_{q^2} under the conjugate "
                    "pairing: enumerate them, or sweep rule predictions "
                    "against enumeration.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, seeded=True):
        sp.add_argument("--p", type=int, help="field characteristic")
        sp.add_argument("--m", type=int, default=None,
                        help="degree of F_q over F_p (default 1, or a "
                             "matrix file's m)")
        sp.add_argument("--capacity", type=int, default=DEFAULT_CAPACITY,
                        help="max vectors or matrices to enumerate "
                             "exhaustively")
        if seeded:
            sp.add_argument("--seed", type=int, default=0,
                            help="seed for any randomized step")
        sp.add_argument("--format", dest="fmt", choices=("json", "csv"),
                        default="json")
        sp.add_argument("--out", help="write output here instead of stdout")

    sp = sub.add_parser("range", help="compute one range of one matrix")
    common(sp)
    sp.add_argument("--matrix", required=True,
                    help="inline rows like 0,1;2,3 or a JSON file")
    sp.add_argument("--kind", choices=tuple(RANGE_KINDS),
                    default=KIND_NUM_K)
    sp.add_argument("--k", type=int, default=0,
                    help="level as a code of F_q, below q (default 0; the "
                         "null kinds take only 0)")
    sp.add_argument("--sample-budget", type=int, default=None,
                    help="fall back to this many sampled vectors over "
                         "capacity; at most the larger of --capacity and "
                         "2^24")

    sp = sub.add_parser("verify", help="run a prediction sweep preset")
    common(sp)
    sp.add_argument("--scope", choices=VERIFY_SCOPES, required=True)
    sp.add_argument("--space", choices=("auto", "full", "subfield", "both"),
                    default="auto")
    sp.add_argument("--n", type=int, default=None,
                    help="matrix size for sized sweeps")
    sp.add_argument("--count", type=int, default=50,
                    help="matrices per randomized sweep")
    sp.add_argument("--collect", choices=(COLLECT_ALL, COLLECT_FAILS),
                    default=COLLECT_ALL,
                    help="report rows of every check, or of failing ones")

    sp = sub.add_parser("fibers", help="null fiber table of a subfield matrix")
    common(sp, seeded=False)
    sp.add_argument("--matrix", required=True,
                    help="inline rows like 0,1;2,3 or a JSON file")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        # capacity 0 is valid: with a sample budget it forces sampling
        if args.capacity < 0:
            raise ValueError(f"--capacity must be at least 0, got {args.capacity}")
        if args.command == "verify":
            return cmd_verify(args, _resolve_ctx(args, None))
        ctx, m = _load_matrix(args)
        if args.command == "range":
            return cmd_range(args, ctx, m)
        return cmd_fibers(args, ctx, m)
    except CapacityError as exc:
        print(f"hermrange: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"hermrange: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit 1 is reserved for failing claims
        print(f"hermrange: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
