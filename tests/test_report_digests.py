"""Pinned sha256 digests of whole sweep reports.

Each digest is over the canonical report bytes (sorted keys, compact
separators, trailing newline, as the CLI writes them) for the default
arguments and collect="all", unless a case names its own policy.  A refactor or optimisation that keeps
every report byte-identical keeps these digests; a deliberate change to
the report must update them and say why.
"""

import hashlib
import json
import random

import pytest

from hermrange.cli import main
from hermrange.fields import build_tower
from hermrange.hermitian import HermMatrix
from hermrange.ranges import num0_prime
from hermrange.verify import (run_direct_sums, run_exhaustive_2x2,
                              run_random_nxn, run_scalar_fibers)

from oracles import random_unitary_2x2

PINNED = (
    ("exhaustive-2x2-q2", run_exhaustive_2x2, (2, 1), {},
     "5160cfc792041a0d4d9c647e5316f8e856b5025f60e75a737afc58fcad48e2d9"),
    ("exhaustive-2x2-q3", run_exhaustive_2x2, (3, 1), {},
     "ead5ca97dd4e859e22efd67768483b9fa93d3cc93840cdace243f2034ae2f706"),
    ("random-nxn-q3", run_random_nxn, (3, 1), {"seed": 0},
     "c6bfba149e900fb07af86bbce1140159a5af9999a8d6e3986a5e3cd4000e9c8a"),
    ("direct-sums-q3", run_direct_sums, (3, 1), {"seed": 0},
     "d638f863f1753131e8db271c6ae5de8810659d2ea5cdd3b54593214ffc5fc0fe"),
    ("scalar-fibers-q3", run_scalar_fibers, (3, 1), {},
     "82613653f59506f4b2398165f58e11a45d3a9536302194a03f73359dc8c15db2"),
    # subfield sweeps across q mod 4: even q (prop5.ii, prop6), q = 1 mod 4,
    # and q = 3 mod 4 above 3
    ("exhaustive-2x2-subfield-q4", run_exhaustive_2x2, (2, 2),
     {"space": "subfield"},
     "7c5f58c219b31f5f2025a51618963a182413a8b44312f6ae36b61e647dd486fb"),
    ("exhaustive-2x2-subfield-q5", run_exhaustive_2x2, (5, 1),
     {"space": "subfield"},
     "e0d94ccb177733ba20cb0eb6095d37fb6851bf0d709360d247bb6dadd0bcd2c0"),
    ("exhaustive-2x2-subfield-q7", run_exhaustive_2x2, (7, 1),
     {"space": "subfield"},
     "11bf166f76489d4be3179a6ed8108a71f5f0a25d7ebdafa2fb150452b88bf1bd"),
    # q = 9 = 1 mod 4 on a degree-2 field: prop5.iii*, cor4.*, prop7,
    # prop9 and remark10
    ("exhaustive-2x2-subfield-q9", run_exhaustive_2x2, (3, 2),
     {"space": "subfield"},
     "db72b99e9a9a7de5d06d9d862129fb8fa32d0ea5900a53cd9e3c177c5fbde810"),
    # random subfield draws at n >= 3: prop9, prop10, prop11 and cor4.ii
    # at q = 5; prop6.* at q = 4; prop8 and prop11 at q = 3, n = 4
    ("random-nxn-q5-n3", run_random_nxn, (5, 1),
     {"n": 3, "count": 200, "seed": 0},
     "d916ad0ef6e65290a61f35ded1c0bd7cd326bf8a655c8c5fc39bc523ff194266"),
    ("random-nxn-q4-n3", run_random_nxn, (2, 2),
     {"n": 3, "count": 200, "seed": 0},
     "f71d8a5f55b27c551a5b2b3f577aba97e573a92cef0bc830851b3eb4d590b9c1"),
    ("random-nxn-q3-n4", run_random_nxn, (3, 1),
     {"n": 4, "count": 100, "seed": 0},
     "96c36d4781d522c4d7d845894a9adf39c023b10229ece984a1662ebd75c631d2"),
    # random subfield sweep of 3x3 draws, each draw evaluated on its own
    ("random-nxn-q3-n3-count400", run_random_nxn, (3, 1),
     {"n": 3, "count": 400, "seed": 1},
     "514a9b20faf53094e4f6cc118013ff22d3aabf9b644242ea890581562bd72f49"),
    # random full-field 2x2 sweeps: eigen2's even and odd root paths, the
    # pairwise tables up to q = 9, and the computed rows of q = 23
    ("random-full-q4", run_random_nxn, (2, 2),
     {"n": 2, "space": "full", "count": 300, "seed": 0},
     "2c6a81f5e5f2e426a393b5e8643e8d6618e885533e755b58244714ce29067e5a"),
    ("random-full-q5", run_random_nxn, (5, 1),
     {"n": 2, "space": "full", "count": 300, "seed": 0},
     "eb65cceb71c1063be6a5f0fe27f5a4788b7214f231bfd4cf7dae1141ada6958a"),
    ("random-full-q7", run_random_nxn, (7, 1),
     {"n": 2, "space": "full", "count": 300, "seed": 0},
     "b98123b8d81d51410cf4c8f43efb318886ec69a8cb4844875d76118898c0654f"),
    ("random-full-q8", run_random_nxn, (2, 3),
     {"n": 2, "space": "full", "count": 300, "seed": 0},
     "03081d5591977edc15e919fe36e42a1e62f06ff3f0903919eec6989cdd295487"),
    ("random-full-q9", run_random_nxn, (3, 2),
     {"n": 2, "space": "full", "count": 300, "seed": 0},
     "dc62377ee4062c6905cc34f2d1cdaba1a9c5c7ec07a806238142b174e316e130"),
    # draws across block boundaries of hermitian.draw_matrices: 12,000
    # codes at q = 4, and 5,000 at q = 3 with 25 codes a matrix
    ("random-full-q4-count3000", run_random_nxn, (2, 2),
     {"n": 2, "space": "full", "count": 3000, "seed": 3},
     "a9e2ecba58a60edb1368b7c0f7b1c209946331374ac5dd85cec523d6328958c3"),
    ("random-nxn-q3-n5", run_random_nxn, (3, 1),
     {"n": 5, "count": 200, "seed": 0},
     "14d3cf1c7adece791cb380940adfaabf45b95cdb7d0f3e895b1f1b17dd5e0fa4"),
    ("random-full-q23", run_random_nxn, (23, 1),
     {"n": 2, "space": "full", "count": 20, "seed": 0},
     "62ce210fcbdf4ddf75fb38ca91df23b6bc9d7bdf298c81230fa8077ff6af102a"),
    # the whole full-field space at q = 4, 65,536 matrices in 832 null
    # classes; rows of failing checks only
    ("exhaustive-2x2-full-q4", run_exhaustive_2x2, (2, 2),
     {"space": "full", "collect": "fails"},
     "ad7f57043d131cd73bf63b08047fa3522e0cf258b01dd61090318d0b9b711359"),
    # the whole full-field space at q = 5: 390,625 matrices in 2,625 null
    # classes, 1,450,250 checks
    ("exhaustive-2x2-full-q5", run_exhaustive_2x2, (5, 1),
     {"space": "full", "collect": "fails"},
     "c2dd8582731fd7c625a038f5892bf73f5730408acca953c3186b9cef8f5459b6"),
)


def _digest(report: dict) -> str:
    text = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("runner,pm,kw,expect",
                         [p[1:] for p in PINNED], ids=[p[0] for p in PINNED])
def test_report_digest(runner, pm, kw, expect):
    report = runner(build_tower(*pm), **{"collect": "all", **kw})
    assert _digest(report) == expect


def test_sampled_range_digest():
    # the sampled-q1031 benchmark input at seed 0: a seeded 2x2 past
    # capacity, 20 drawn witnesses, on the large-field tier of q = 1031
    ctx = build_tower(1031, 1)
    rng = random.Random(0)
    rows = [[rng.randrange(ctx.q2) for _ in range(2)] for _ in range(2)]
    rs = num0_prime(HermMatrix.from_encs(ctx, rows), sample_budget=20, rng=rng)
    payload = dict(rs.to_json_dict(), field=ctx.spec.to_json_dict(),
                   matrix=rows)
    assert _digest(payload) == (
        "957ba02ce236bfca3dfa1c3f15a210ed89f0e4b104025cb89bf774257b7a3af4")


_SAMPLE = ("range", "--capacity", "0", "--sample-budget", "200", "--seed", "3")


@pytest.mark.parametrize("argv,expect", [
    (("--kind", "num0_prime", "--matrix", "5,7;11,13", "--p", "1031"),
     "086b93089ecc0e07718c36bb8f388ebf045596af943638f606c69826b6bee69e"),
    # an even q on the formula tier
    (("--kind", "num0_prime", "--matrix", "5,7;11,13", "--p", "2", "--m", "6"),
     "e270980088cf97661e983dc688e3a0ee931396d1ff8328850067090fda53cad3"),
    (("--kind", "num_k", "--k", "1", "--matrix", "5,7,11;13,17,19;23,29,31",
      "--p", "1031"),
     "85767864fa93172fce0ce238c1955152d8d9ee7a318e3d74cfa9a040a34d5740"),
], ids=["num0-q1031", "num0-q64", "num_k-3x3-q1031"])
def test_sampled_draw_stream_digest(capsys, argv, expect):
    # a full-field draw takes its last coordinate as the r-th norm
    # preimage of the residual for r = randrange(count), so any change
    # to the preimage order or to the rng calls moves these bytes
    assert main([*_SAMPLE, *argv]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == expect


def test_random_unitary_stream_digest():
    ctx = build_tower(1031)
    mats = [random_unitary_2x2(ctx, random.Random(s)).encs() for s in range(5)]
    assert _digest({"unitaries": mats}) == (
        "391082394d96e359713caaac5f03551afafe1c8e626039b4a0f9e040614ba374")


@pytest.mark.parametrize("argv,expect", [
    # the largest all-rows report: 65,536 full-field matrices at q = 4,
    # 239,552 rows
    ("--p 2 --m 2 --scope exhaustive-2x2 --space full",
     "3403c37c5cdc21330417b77cbdd1ec7773ef898bfd5e1abb9dce5b7be5de914c"),
    # the CSV writer's matrix cells and observed column
    ("--p 3 --scope exhaustive-2x2 --format csv",
     "77bfb330545d45e9e8340ee2664f0c79df9c29724bcd0011b6a7667c665d7d6b"),
], ids=["full-q4-json", "exhaustive-q3-csv"])
def test_cli_verify_report_digest(tmp_path, argv, expect):
    dest = tmp_path / "report"
    assert main(["verify", *argv.split(), "--out", str(dest)]) == 0
    assert hashlib.sha256(dest.read_bytes()).hexdigest() == expect
