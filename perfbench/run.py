"""hermrange benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the benchmark imports hermrange
from `src/`.  Repetitions run one at a time, each in a fresh worker
process (worker.py), until S seconds have passed and at least three
have run.  With --trace 0 the last line of standard output is a JSON
object holding the end-to-end metrics (medians over repetitions); with
--trace 1 it holds the per-layer metrics, taken from traced repetitions
that alternate with untraced ones.  Every repetition's report is checked
against a pinned digest (input seed 0) or against seed-independent
invariants; a mismatch counts its operations as failed.  The lines
before the last one record the machine, the code and the spread of each
metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import workloads as wl
from tracer import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

END_TO_END = (("run_s", "s"), ("ops_per_s", "1/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))
MIN_CYCLES = 3
# no new repetition starts after this many seconds, so a run ends in time
LAST_START_S = 140.0
RUN_LIMIT_S = 175.0


@dataclass
class Rep:
    mode: str
    index: int
    input_seed: int
    result: dict | None = None
    setup_s: float = 0.0
    failures: list[str] = field(default_factory=list)


def _worker_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def run_rep(spec: wl.Workload, mode: str, index: int, seed: int,
            timeout: float) -> Rep:
    """Run one repetition in a fresh worker and check its output."""
    rep = Rep(mode, index, wl.input_seed(spec, seed, index))
    job = json.dumps({"spec": asdict(spec), "mode": mode,
                      "input_seed": rep.input_seed, "src": str(SRC),
                      "out_dir": str(OUT_DIR), "timeout": timeout - 5})
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), job],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, cwd=ROOT, env=_worker_env(),
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        rep.failures.append(f"worker timed out after {timeout:.0f} s")
        return rep
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-1:] or ["no message"]
        rep.failures.append(f"worker exit {proc.returncode}: {tail[0]}")
        return rep
    try:
        rep.result = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        rep.failures.append("worker printed no JSON result")
        return rep
    rep.setup_s = rep.result["ready"] - spawned
    rep.failures.extend(rep.result["errors"])
    if (rep.input_seed == wl.PINNED_INPUT_SEED
            and rep.result["digest"] != spec.digest):
        rep.failures.append(f"report digest {rep.result['digest']} does not "
                            f"match the pinned {spec.digest}")
    return rep


def modes(spec: wl.Workload, trace: bool) -> tuple[str, ...]:
    if not trace:
        return ("plain",)
    if spec.kind == wl.CLI:
        return ("plain", "inproc", "traced")
    return ("plain", "traced")


def collect(spec: wl.Workload, seed: int, seconds: float,
            trace: bool) -> list[Rep]:
    """Repeat the workload for `seconds`, one repetition at a time."""
    OUT_DIR.mkdir(exist_ok=True)
    start = time.monotonic()
    reps: list[Rep] = []
    index = 0
    while True:
        for mode in modes(spec, trace):
            left = RUN_LIMIT_S - (time.monotonic() - start)
            reps.append(run_rep(spec, mode, index, seed, left))
        index += 1
        elapsed = time.monotonic() - start
        if (elapsed >= seconds and index >= MIN_CYCLES) or \
                elapsed >= LAST_START_S:
            break
    # repetitions of one input must write the same report, traced or not
    by_input: dict[int, set] = {}
    for rep in reps:
        if rep.result is not None:
            by_input.setdefault(rep.input_seed, set()).add(
                rep.result["digest"])
    for rep in reps:
        if rep.result is not None and len(by_input[rep.input_seed]) > 1:
            rep.failures.append("report differs between repetitions of "
                                "one input")
    return reps


def _spread(values: list[float]) -> str:
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return (f"n={len(values)} median={statistics.median(values):.6g} "
            f"q1={q1:.6g} q3={q3:.6g} min={min(values):.6g} "
            f"max={max(values):.6g}")


def end_to_end(reps: list[Rep]) -> dict[str, list[float]]:
    plain = [r for r in reps if r.mode == "plain" and r.result is not None]
    return {
        "run_s": [r.result["run_s"] for r in plain],
        "ops_per_s": [r.result["ops"] / r.result["run_s"] for r in plain],
        "setup_s": [r.setup_s for r in plain],
        "peak_rss_mb": [r.result["peak_rss_mb"] for r in plain],
    }


def per_layer(spec: wl.Workload, reps: list[Rep]) -> dict[str, list[float]]:
    done = {(r.mode, r.index): r.result for r in reps if r.result is not None}
    traced = [r.result for r in reps
              if r.mode == "traced" and r.result is not None]
    out = ({name: [t["layers"][name] for t in traced]
            for name in traced[0]["layers"]} if traced else {})
    base = "inproc" if spec.kind == wl.CLI else "plain"
    overhead, process = [], []
    for (mode, index), res in done.items():
        if mode == "traced" and (base, index) in done:
            overhead.append(res["run_s"] - done[(base, index)]["run_s"])
        if mode == "inproc" and ("plain", index) in done:
            process.append(done[("plain", index)]["run_s"] - res["run_s"])
    out["trace.overhead_s"] = overhead
    out["cli.process_s"] = process or [0.0]
    return out


def code_record() -> dict:
    files = sorted(SRC.rglob("*.py"))
    h = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        h.update(str(f.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = ""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit or "unknown (not a git checkout)",
            "src_sha256": h.hexdigest(), "src_lines": lines}


def machine_record() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(),
            "implementation": platform.python_implementation()}


def measure(spec: wl.Workload, seed: int, seconds: float,
            trace: bool) -> dict:
    """Run the workload and build the result object; also print the
    record lines that precede it."""
    reps = collect(spec, seed, seconds, trace)
    attempted = failed = 0
    for rep in reps:
        ops = rep.result["ops"] if rep.result is not None else 1
        attempted += ops
        if rep.failures:
            failed += ops
            for msg in rep.failures:
                print(f"FAILED {rep.mode} rep {rep.index} "
                      f"(input seed {rep.input_seed}): {msg}")
    samples = per_layer(spec, reps) if trace else end_to_end(reps)
    units = (dict((n, u) for n, u, *_ in LAYER_METRICS) if trace
             else dict(END_TO_END))
    metrics = {}
    for name, unit in units.items():
        values = samples.get(name)
        if not values:
            raise RuntimeError(f"no successful repetition measured {name}")
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        print(f"metric {name} [{unit}]: {_spread(values)}")
    print(f"error_rate: {failed}/{attempted} = {failed / attempted:.6g}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hermrange" / "__init__.py").is_file():
        print(f"perfbench: no hermrange sources under {SRC}", file=sys.stderr)
        return 2
    spec = wl.WORKLOADS[args.workload]
    print("machine: " + json.dumps(machine_record(), sort_keys=True))
    print("code: " + json.dumps(code_record(), sort_keys=True))
    print("workload: " + json.dumps(
        dict(asdict(spec), seed=args.seed, seconds=args.seconds,
             trace=args.trace), sort_keys=True))
    if args.trace:
        for name, unit, better, target in LAYER_METRICS:
            print(f"layer {name} [{unit}, {better} is better] moves {target}")
    try:
        result = measure(spec, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
