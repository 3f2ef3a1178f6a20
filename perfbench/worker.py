"""One benchmark repetition, in a fresh interpreter.

Run by run.py as `python perfbench/worker.py JOB`, where JOB is a JSON
object with the workload, the mode, the input seed and the output
directory.  Modes: `plain` times the workload untraced (for the CLI
workload, as a subprocess); `inproc` times `cli.main` in this process;
`traced` does the same as `plain` (or `inproc` for the CLI) with spans
recorded.  The last line of standard output is a JSON result.
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl
from tracer import Tracer, install, layer_metrics


def _run_cli(hr, spec, seed: int, mode: str, out: Path, timeout: float):
    argv = ["verify", "--p", str(spec.p), "--m", str(spec.m),
            "--scope", "exhaustive-2x2", "--seed", str(seed),
            "--out", str(out)]
    t0 = time.perf_counter()
    if mode == "plain":
        code = subprocess.run([sys.executable, "-m", "hermrange.cli", *argv],
                              timeout=timeout).returncode
    else:
        code = hr.cli.main(argv)
    run_s = time.perf_counter() - t0
    data = out.read_bytes()
    out.unlink()
    if mode == "plain":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report = json.loads(data)
    errors = [] if code == 0 else [f"CLI exit code {code}"]
    errors += wl.sweep_violations(spec, report, all_rows=True)
    return run_s, data, report, errors, rss_kb


def _run_in_process(hr, ctx, spec, seed: int):
    if spec.kind == wl.SAMPLED:
        cap = {} if spec.capacity is None else {"capacity": spec.capacity}
        # the inputs: a seeded matrix and the rng that draws the witnesses
        rng = random.Random(seed)
        rows = [[rng.randrange(ctx.q2) for _ in range(2)] for _ in range(2)]
        t0 = time.perf_counter()
        m = hr.hermitian.HermMatrix.from_encs(ctx, rows)
        rs = hr.ranges.num0_prime(m, sample_budget=spec.size, rng=rng, **cap)
        run_s = time.perf_counter() - t0
        payload = dict(rs.to_json_dict(), field=ctx.spec.to_json_dict(),
                       matrix=rows)
        return run_s, payload, None, wl.sampled_violations(spec, ctx.q2,
                                                           payload)
    t0 = time.perf_counter()
    if spec.kind == wl.RANDOM_FULL:
        report = hr.verify.run_random_nxn(ctx, n=2, count=spec.size,
                                          seed=seed, space="full",
                                          collect="fails")
    else:
        report = hr.verify.run_exhaustive_2x2(ctx, space="subfield",
                                              collect="fails", seed=seed)
    run_s = time.perf_counter() - t0
    return run_s, report, report, wl.sweep_violations(spec, report,
                                                      all_rows=False)


def main() -> dict:
    job = json.loads(sys.argv[1])
    spec = wl.Workload(**job["spec"])
    mode, seed = job["mode"], job["input_seed"]
    out_dir = Path(job["out_dir"])
    tracer = Tracer() if mode == "traced" else None

    t0 = time.perf_counter()
    import hermrange
    if spec.kind == wl.CLI:
        import hermrange.cli  # noqa: F401
    src = Path(job["src"]).resolve()
    if src not in Path(hermrange.__file__).resolve().parents:
        raise RuntimeError(f"hermrange imported from {hermrange.__file__}, "
                           f"not from {src}")
    if tracer is not None:
        install(tracer)
    t1 = time.perf_counter()
    ctx = hermrange.fields.build_tower(spec.p, spec.m)
    t2 = time.perf_counter()
    ready = time.monotonic()

    cone_cache = hermrange.hermitian.cone_encs.cache_info()
    run_start = time.perf_counter()
    if spec.kind == wl.CLI:
        out = out_dir / f"cli-report-{os.getpid()}.json"
        run_s, data, report, errors, rss_kb = _run_cli(
            hermrange, spec, seed, mode, out, job["timeout"])
        ops = len(report["checks"])
    else:
        run_s, payload, report, errors = _run_in_process(
            hermrange, ctx, spec, seed)
        data = wl.canonical_bytes(payload)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        ops = (payload["witness_count"] if spec.kind == wl.SAMPLED
               else payload["summary"]["total"])

    result = {
        "ready": ready, "import_s": t1 - t0, "tower_s": t2 - t1,
        "run_s": run_s, "ops": ops, "digest": wl.digest(data),
        "errors": errors, "peak_rss_mb": rss_kb / 1024.0,
    }
    if tracer is not None:
        after = hermrange.hermitian.cone_encs.cache_info()
        delta = (after.hits - cone_cache.hits,
                 after.misses - cone_cache.misses)
        result["layers"] = layer_metrics(
            tracer, run_start, t2 - t1, delta, report,
            len(data) if spec.kind == wl.CLI else 0)
        _, self_s = tracer.self_times(since=run_start)
        result["span_self_total_s"] = sum(self_s.values())
        tracer.dump(out_dir / f"{spec.name}.spans.json")
    return result


if __name__ == "__main__":
    print(json.dumps(main()))
