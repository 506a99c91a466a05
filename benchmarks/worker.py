"""One workload run, in a process of its own; ``run.py`` starts it.

A closed loop with one client: each request starts when the previous one
has ended.  The same seeded pass of requests repeats until less than half a
pass fits in ``--seconds``; at least one untraced pass runs, and with
``--trace 1`` traced and untraced passes alternate, at least two traced.
End-to-end timings come from untraced passes only.  Prints one JSON
object on its last stdout line.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
from collections import defaultdict
from time import perf_counter

import numpy as np

import spans
import speed
import workloads as wl

#: Ladder for "the highest percentile with at least ten samples beyond it".
PERCENTILES = (99.9, 99, 95, 90, 75)
MAX_FAILURES_KEPT = 20
#: Least work between two timings of the reference loop (see speed.py).
LOOP_EVERY_S = 0.05


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def timing(values_ms: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    summary = {"n": len(values_ms), "p50_ms": statistics.median(values_ms)}
    for q in PERCENTILES:
        if len(values_ms) * (100.0 - q) / 100.0 >= 10:
            summary["tail_pct"] = q
            summary["tail_ms"] = percentile(values_ms, q)
            break
    return summary


class PassLog:
    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.op_ms: list[float] = []  # wall time, in pass order
        self.loop_ms: list[float] = []  # reference-loop timings around the ops
        self.loop_before: list[int] = []  # per op: index of the loop timing before it
        self.failures: list[str] = []
        self.seconds = 0.0
        self.layers: dict[str, float] = {}

    def ref_ms(self) -> list[float]:
        """Op times rescaled to the reference core (speed.py)."""
        return [
            speed.to_ref(ms, self.loop_ms[k], self.loop_ms[k + 1])
            for ms, k in zip(self.op_ms, self.loop_before)
        ]


def run_pass(requests: list[wl.Request], log: PassLog, rec: spans.Recorder | None) -> None:
    t_pass = perf_counter()
    log.loop_ms.append(speed.loop_ms())
    last_loop = perf_counter()
    for request in requests:
        ctx: dict = {}
        for op in request:
            t0 = perf_counter()
            try:
                outcome = op.run(ctx) if rec is None else rec.run_op(op.kind, op.run, ctx)
            except Exception as exc:  # any op may fail; it is counted, not fatal
                outcome, failure = None, f"raised {exc!r}"
            t1 = perf_counter()
            if outcome is not None:
                failure = op.check(outcome, ctx)
            log.op_ms.append((t1 - t0) * 1e3)
            log.loop_before.append(len(log.loop_ms) - 1)
            if failure is not None:
                log.failures.append(f"{op.kind}: {failure}")
            if t1 - last_loop >= LOOP_EVERY_S:
                log.loop_ms.append(speed.loop_ms())
                last_loop = perf_counter()
    log.loop_ms.append(speed.loop_ms())
    log.seconds = perf_counter() - t_pass


def measure(requests: list[wl.Request], seconds: float, trace: bool, rec: spans.Recorder) -> list[PassLog]:
    speed.pin_fastest()
    # warm-up: lazy imports and first-call costs stay out of the timings
    requests[0][-1].run({})
    logs: list[PassLog] = []
    start = perf_counter()
    for traced in itertools.cycle((True, False)) if trace else itertools.repeat(False):
        log = PassLog(traced)
        if traced:
            rec.begin_pass()
            patches = spans.install(rec)
            try:
                run_pass(requests, log, rec)
            finally:
                spans.uninstall(patches)
            log.layers = rec.pass_stats()
        else:
            run_pass(requests, log, None)
        logs.append(log)
        n_traced = sum(entry.traced for entry in logs)
        enough = len(logs) > n_traced and (n_traced >= 2 or not trace)
        # stop unless at least half of another pass fits in the time left
        if enough and perf_counter() - start + log.seconds / 2 > seconds:
            return logs


def per_request(requests: list[wl.Request], op_ms: list[float]) -> list[float]:
    sums, pos = [], 0
    for request in requests:
        sums.append(sum(op_ms[pos:pos + len(request)]))
        pos += len(request)
    return sums


def summarise(requests: list[wl.Request], logs: list[PassLog]) -> dict:
    """Median and tail of every op kind and of whole requests, and the pass time.

    ``ref`` is on the reference core (speed.py) and feeds BENCHMARK.json;
    ``wall`` is the same on the clock, for the record.
    """
    kinds = [op.kind for request in requests for op in request]
    out: dict = {"passes": len(logs)}
    for label, per_pass in (("ref", [log.ref_ms() for log in logs]),
                            ("wall", [log.op_ms for log in logs])):
        by_kind: dict[str, list[float]] = defaultdict(list)
        for op_ms in per_pass:
            for kind, ms in zip(kinds, op_ms):
                by_kind[kind].append(ms)
        stats = {"request": timing([v for op_ms in per_pass for v in per_request(requests, op_ms)])}
        stats.update({kind: timing(values) for kind, values in by_kind.items()})
        stats["pass_s"] = statistics.median(sum(op_ms) / 1e3 for op_ms in per_pass)
        out[label] = stats
    return out


def layer_metrics(logs: list[PassLog], workload: str) -> tuple[dict[str, float], list[str], list[str]]:
    """Per-pass layer metrics of the traced passes, with the two checks.

    Counts must repeat exactly across traced passes; times are medians,
    on the reference core.
    Returns (metrics, names whose counts differ, exercised names not called).
    """
    traced = [log for log in logs if log.traced]
    passes = [log.layers for log in traced]
    # seconds go to the reference core at each pass's median loop time
    scales = [speed.REF_LOOP_MS / statistics.median(log.loop_ms) for log in traced]
    metrics: dict[str, float] = {}
    unstable = []
    for name in passes[0]:
        values = [p.get(name, 0) for p in passes]
        if name.endswith("_s"):
            metrics[name] = statistics.median(v * k for v, k in zip(values, scales))
        else:
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                unstable.append(name)
    first = passes[0]
    link_solves = first.get("security.link_solves", 0)
    evaluations = first.get("optimizer.evaluations", 0)
    metrics["security.probes_per_solve"] = (
        first.get("security.solver_probes", 0) / link_solves if link_solves else 0.0
    )
    metrics["optimizer.feasible_ratio"] = (
        first.get("optimizer.n_feasible", 0) / evaluations if evaluations else 0.0
    )
    metrics.setdefault("protocol.key_bits", 0)
    missing = [name for name in wl.EXERCISED[workload] if not first.get(f"{name}.calls")]
    return metrics, unstable, missing


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spans", required=True,
                        help="write the traced run's spans here (.npz)")
    args = parser.parse_args()

    reference = wl.load_reference()
    workdir = wl.BENCH_DIR / "out" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    rec = spans.Recorder()
    try:
        requests = wl.make_pass(args.workload, args.seed, args.smoke, workdir, reference)
        logs = measure(requests, args.seconds, bool(args.trace), rec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [log for log in logs if not log.traced]
    failures = [f for log in logs for f in log.failures]
    result = {
        "attempted": len(logs) * sum(len(request) for request in requests),
        "failed": len(failures),
        "failures": sorted(set(failures))[:MAX_FAILURES_KEPT],
        "requests_per_pass": len(requests),
        "untraced": summarise(requests, untraced),
        "loop_ms": [ms for log in logs for ms in log.loop_ms],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": np.__version__,
    }
    if args.trace:
        traced = result["traced"] = summarise(requests, [log for log in logs if log.traced])
        untraced_ref = result["untraced"]["ref"]
        result["trace_overhead"] = {
            f"{kind}_p50_ms": traced["ref"][kind]["p50_ms"] - untraced_ref[kind]["p50_ms"]
            for kind in untraced_ref if kind != "pass_s"
        }
        result["trace_overhead"]["pass_s"] = traced["ref"]["pass_s"] - untraced_ref["pass_s"]
        result["per_layer"], result["unstable_counts"], result["not_exercised"] = layer_metrics(
            logs, args.workload
        )
        rec.dump(args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
