"""Spans around calls into hermrange's layers, recorded from outside.

A traced worker replaces the module-level names each layer calls
through with wrappers that record a span (name, start, end, parent).
Spans stay in memory; the worker turns them into per-layer metrics and
writes them out when its repetition ends.  A span's self time is its
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# Per-layer metrics: name, unit, which way is better, and the end-to-end
# metric and workload the layer should move.
LAYER_METRICS = (
    ("fields.build_tower.s", "s", "lower", "setup_s, all workloads"),
    ("fields.norm_preimage_encs.calls", "count", "lower",
     "run_s on sampled-q1031 only"),
    ("fields.norm_preimage_encs.s", "s", "lower",
     "run_s on sampled-q1031 only"),
    ("hermitian.cone_encs.calls", "count", "lower",
     "peak_rss_mb, all workloads"),
    ("hermitian.cone_encs.hits", "count", "higher",
     "peak_rss_mb, all workloads"),
    ("hermitian.cone_encs.misses", "count", "lower",
     "peak_rss_mb, all workloads"),
    ("hermitian.cone_encs.s", "s", "lower", "peak_rss_mb, all workloads"),
    ("hermitian.sample_cone_encs.draws", "count", "lower",
     "run_s on sampled-q1031"),
    ("hermitian.sample_cone_encs.s", "s", "lower", "run_s on sampled-q1031"),
    ("hermitian.HermMatrix.from_encs.calls", "count", "lower",
     "run_s on subfield-2x2-q9 and cli-verify-q3"),
    ("hermitian.HermMatrix.from_encs.s", "s", "lower",
     "run_s on subfield-2x2-q9 and cli-verify-q3"),
    ("ranges.range.calls", "count", "lower",
     "run_s on full-2x2-q4, then subfield-2x2-q9"),
    ("ranges.range.s", "s", "lower",
     "run_s on full-2x2-q4, then subfield-2x2-q9"),
    ("ranges.range.witnesses", "count", "lower",
     "run_s on full-2x2-q4, then subfield-2x2-q9"),
    ("ranges.reuse", "ratio", "higher",
     "run_s on full-2x2-q4 and subfield-2x2-q9"),
    ("ranges.resolve_affine_shift.s", "s", "lower",
     "run_s on subfield-2x2-q9 and cli-verify-q3"),
    ("classify.predict.calls", "count", "lower", "run_s on subfield-2x2-q9"),
    ("classify.predict.s", "s", "lower", "run_s on subfield-2x2-q9"),
    ("classify.predictions", "count", "lower", "run_s on subfield-2x2-q9"),
    ("classify.eigen2.calls", "count", "lower",
     "run_s on full-2x2-q4, not subfield-2x2-q9"),
    ("classify.eigen2.s", "s", "lower",
     "run_s on full-2x2-q4, not subfield-2x2-q9"),
    ("classify.check_prediction.calls", "count", "lower",
     "run_s on the sweep workloads"),
    ("classify.check_prediction.s", "s", "lower",
     "run_s on the sweep workloads"),
    ("verify.sweep.s", "s", "lower", "run_s on the sweep workloads"),
    ("verify.checks", "count", "higher", "ops_per_s on the sweep workloads"),
    ("verify.rows", "count", "lower", "run_s on cli-verify-q3"),
    ("verify.fail_rows", "count", "lower", "run_s on cli-verify-q3"),
    ("cli.serialize.s", "s", "lower", "run_s on cli-verify-q3 only"),
    ("cli.report_bytes", "bytes", "lower", "run_s on cli-verify-q3"),
    ("cli.process_s", "s", "lower", "setup_s and run_s on cli-verify-q3"),
    ("trace.overhead_s", "s", "lower", "none: traced minus untraced run_s"),
)

# range entry points, wherever a layer calls them by name
_RANGE_FUNCS = ("num_k", "num0_prime", "num_k_subfield", "num0_prime_subfield",
                "fiber_count")
_PREDICT_FUNCS = ("predict_full_field", "predict_subfield",
                  "predict_direct_sum")


class Tracer:
    """Span recorder; wrappers share one stack, as calls are nested."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def wrap_generator(self, name: str, fn, count_key: str):
        """One span per item drawn, so time spent by the consumer between
        items stays with the consumer."""
        next_item = self.wrap(name, next)
        counts = self.counts

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = next_item(it)
                except StopIteration:
                    return
                counts[count_key] += 1
                yield item

        return traced

    def patch(self, owner, attr: str, name: str, on_result=None,
              count_key: str | None = None) -> None:
        """Replace owner.attr by its traced wrapper; a count_key marks a
        generator and counts the items it yields."""
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{owner.__name__}.{attr}")
        elif count_key is not None:
            setattr(owner, attr, self.wrap_generator(name, fn, count_key))
        else:
            setattr(owner, attr, self.wrap(name, fn, on_result))

    def self_times(self, since: float = float("-inf")):
        """Calls and self seconds per span name, over spans starting at or
        after `since`."""
        child = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s = Counter(), defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            if start >= since:
                calls[name] += 1
                self_s[name] += (end - start) - child[i]
        return calls, self_s

    def dump(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names,
                       "spans": [[index[n], s, e, p]
                                 for n, s, e, p in self.spans]}, fh)


def install(tracer: Tracer) -> None:
    """Wrap the names hermrange's layers call through."""
    from hermrange import classify, cli, fields, hermitian, ranges, verify

    def trace_ctx(ctx):
        # a bound method on the context instance, not a module name
        ctx.norm_preimage_encs = tracer.wrap(
            "fields.norm_preimage_encs", ctx.norm_preimage_encs)

    def count(key, measure):
        def add(result):
            tracer.counts[key] += measure(result)
        return add

    for owner in (fields, cli):
        tracer.patch(owner, "build_tower", "fields.build_tower",
                     on_result=trace_ctx)
    tracer.patch(ranges, "cone_encs", "hermitian.cone_encs")
    tracer.patch(ranges, "sample_cone_encs", "hermitian.sample_cone_encs",
                 count_key="hermitian.sample_cone_encs.draws")
    herm = hermitian.HermMatrix
    herm.from_encs = staticmethod(tracer.wrap(
        "hermitian.HermMatrix.from_encs", herm.from_encs))
    witnesses = count("ranges.range.witnesses",
                      lambda r: getattr(r, "witness_count", 0))
    for owner in (ranges, verify):
        for attr in _RANGE_FUNCS:
            tracer.patch(owner, attr, "ranges.range", on_result=witnesses)
    tracer.patch(verify, "resolve_affine_shift", "ranges.resolve_affine_shift")
    predictions = count("classify.predictions", len)
    for attr in _PREDICT_FUNCS:
        tracer.patch(verify, attr, "classify.predict", on_result=predictions)
    tracer.patch(classify, "eigen2", "classify.eigen2")
    tracer.patch(verify, "check_prediction", "classify.check_prediction")
    for attr in ("run_exhaustive_2x2", "run_random_nxn"):
        tracer.patch(verify, attr, "verify.sweep")
    tracer.patch(cli, "run_exhaustive_2x2", "verify.sweep")
    tracer.patch(cli, "main", "cli.main")
    for name in tracer.missing:
        print(f"perfbench: cannot trace {name}: not found", file=sys.stderr)


def layer_metrics(tracer: Tracer, run_start: float, tower_s: float,
                  cache_delta: tuple[int, int], report: dict | None,
                  report_bytes: int) -> dict:
    """Per-layer metrics of one traced repetition, from the spans that
    start at or after run_start, except those the driver derives from
    several repetitions.  tower_s is the set-up build_tower time."""
    calls, self_s = tracer.self_times(since=run_start)
    c = tracer.counts
    ranges_calls = calls["ranges.range"]
    rows = report["checks"] if report else []
    return {
        "fields.build_tower.s": tower_s,
        "fields.norm_preimage_encs.calls": calls["fields.norm_preimage_encs"],
        "fields.norm_preimage_encs.s": self_s["fields.norm_preimage_encs"],
        "hermitian.cone_encs.calls": calls["hermitian.cone_encs"],
        "hermitian.cone_encs.hits": cache_delta[0],
        "hermitian.cone_encs.misses": cache_delta[1],
        "hermitian.cone_encs.s": self_s["hermitian.cone_encs"],
        "hermitian.sample_cone_encs.draws":
            c["hermitian.sample_cone_encs.draws"],
        "hermitian.sample_cone_encs.s": self_s["hermitian.sample_cone_encs"],
        "hermitian.HermMatrix.from_encs.calls":
            calls["hermitian.HermMatrix.from_encs"],
        "hermitian.HermMatrix.from_encs.s":
            self_s["hermitian.HermMatrix.from_encs"],
        "ranges.range.calls": ranges_calls,
        "ranges.range.s": self_s["ranges.range"],
        "ranges.range.witnesses": c["ranges.range.witnesses"],
        "ranges.reuse": (calls["classify.check_prediction"] / ranges_calls
                         if ranges_calls else 0.0),
        "ranges.resolve_affine_shift.s": self_s["ranges.resolve_affine_shift"],
        "classify.predict.calls": calls["classify.predict"],
        "classify.predict.s": self_s["classify.predict"],
        "classify.predictions": c["classify.predictions"],
        "classify.eigen2.calls": calls["classify.eigen2"],
        "classify.eigen2.s": self_s["classify.eigen2"],
        "classify.check_prediction.calls": calls["classify.check_prediction"],
        "classify.check_prediction.s": self_s["classify.check_prediction"],
        "verify.sweep.s": self_s["verify.sweep"],
        "verify.checks": report["summary"]["total"] if report else 0,
        "verify.rows": len(rows),
        "verify.fail_rows": sum(1 for r in rows if r["verdict"] == "fail"),
        "cli.serialize.s": self_s["cli.main"],
        "cli.report_bytes": report_bytes,
    }
