"""Self-check of the benchmark itself, on q=2 so it ends in seconds.

    python3 perfbench/selfcheck.py

Runs a q=2 variant of every workload through the driver's repetition
loop, untraced and traced, and checks that:
- every workload path runs and passes its pinned digest and invariants,
  also for a seed whose digest is not pinned;
- traced self times sum to no more than the traced wall time;
- a deliberately wrong pinned digest is reported as failed operations;
- BENCHMARK.json names the workloads and metrics the driver reports.
Prints one line per failed check and exits 1 if any failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import replace

import run
import workloads as wl
from tracer import LAYER_METRICS

W = wl.WORKLOADS
SMALL = (
    replace(W["full-2x2-q4"], name="full-2x2-q2", p=2, m=1, size=64,
            digest="9bcde7912d41d74784cfc9625cd03ea027eb93301c1fe0dce5e1bb4ad398ef45"),
    replace(W["subfield-2x2-q9"], name="subfield-2x2-q2", p=2, m=1, checks=64,
            digest="39213317c20f7ba7be4cfdc673cde85973b016b32af72d4fe26100cd2c4d825a"),
    replace(W["cli-verify-q3"], name="cli-verify-q2", p=2, m=1, checks=840,
            digest="5160cfc792041a0d4d9c647e5316f8e856b5025f60e75a737afc58fcad48e2d9"),
    replace(W["sampled-q1031"], name="sampled-q2", p=2, m=1, size=5,
            capacity=1,
            digest="bbd5c08820cdb9a066ae7c4a24180f8fe356eedff7e2f3897723696454fe6d83"),
)


def check_paths(problems: list[str]) -> None:
    for spec in SMALL:
        for seed in (wl.PINNED_INPUT_SEED, 1):
            reps = run.collect(spec, seed, 0.0, trace=True)
            for rep in reps:
                for msg in rep.failures:
                    problems.append(f"{spec.name} seed {seed} {rep.mode}: "
                                    f"{msg}")
            modes = {r.mode for r in reps if r.result is not None}
            if modes != set(run.modes(spec, True)):
                problems.append(f"{spec.name}: modes run {sorted(modes)}")
            for rep in reps:
                res = rep.result
                if rep.mode != "traced" or res is None:
                    continue
                if res["span_self_total_s"] > res["run_s"]:
                    problems.append(
                        f"{spec.name}: traced self times sum to "
                        f"{res['span_self_total_s']:.6f} s, more than the "
                        f"traced wall time {res['run_s']:.6f} s")
            layers = run.per_layer(spec, reps)
            missing = [n for n, *_ in LAYER_METRICS if not layers.get(n)]
            if missing:
                problems.append(f"{spec.name}: no value for {missing}")


def check_wrong_digest(problems: list[str]) -> None:
    for spec in SMALL:
        wrong = replace(spec, digest="0" * 64)
        with contextlib.redirect_stdout(io.StringIO()):
            result = run.measure(wrong, wl.PINNED_INPUT_SEED, 0.0, False)
        if result["correct"] or result["failed"] == 0:
            problems.append(f"{spec.name}: a wrong pinned digest passed")


def check_benchmark_json(problems: list[str]) -> None:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    if [w["name"] for w in bench["workloads"]] != list(W):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    e2e = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    if e2e != list(run.END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from run.py")
    layers = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    if layers != [m[:3] for m in LAYER_METRICS]:
        problems.append("BENCHMARK.json per_layer differs from tracer.py")


def main() -> int:
    problems: list[str] = []
    check_paths(problems)
    check_wrong_digest(problems)
    check_benchmark_json(problems)
    for p in problems:
        print(f"selfcheck: {p}")
    print(f"selfcheck: {'FAILED' if problems else 'ok'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
