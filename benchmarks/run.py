"""Benchmark entry point.

    python3 benchmarks/run.py --workload {curve,reports,sessions} --seed N \\
        --seconds S --trace {0,1} [--smoke]

Run from the root of a source checkout; the program is imported from its
``src/``.  The script times set-up in fresh interpreters, runs the
workload in a child process (``worker.py``), writes the full result with
a machine record to ``benchmarks/out/``, prints every metric by name
with its unit, and prints as its last line the JSON object that
BENCHMARK.json describes: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  ``--smoke`` shrinks every pass to
a few requests.  README.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: The config each workload's set-up reads.
CONFIGS = {"curve": "device.cfg", "reports": "device.cfg", "sessions": "desk.cfg"}
SETUP_PROBES = 7
#: What set-up means here: a fresh interpreter imports the package and reads the config.
PROBE = (
    "import sys, time\n"
    "import qds_onedecoy\n"
    "qds_onedecoy.read_config(sys.argv[1])\n"
    "print(time.monotonic())\n"
)
CHILD_TIMEOUT_S = 175.0


def fail(message: str) -> None:
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def read_first_line(path: str, prefix: str = "") -> str:
    try:
        with open(path) as fp:
            for line in fp:
                if line.startswith(prefix):
                    return line.split(":", 1)[-1].strip() if prefix else line.strip()
    except OSError:
        pass
    return "unknown"


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def setup_seconds(config: str, env: dict) -> tuple[list[float], list[float]]:
    """Fresh-interpreter set-up times, on the clock and on the reference core.

    The probes run on this process's core, between timings of the
    reference loop (speed.py).  The first probe, which may compile
    bytecode, is dropped.
    """
    wall, ref = [], []
    loop_before = speed.loop_ms()
    for _ in range(SETUP_PROBES + 1):
        start = time.monotonic()  # system-wide clock, comparable with the child's
        done = subprocess.run([sys.executable, "-c", PROBE, config], env=env,
                              capture_output=True, text=True, timeout=60)
        if done.returncode != 0:
            fail(f"set-up probe failed:\n{done.stderr.strip()}")
        seconds = float(done.stdout.strip()) - start
        loop_after = speed.loop_ms()
        wall.append(seconds)
        ref.append(speed.to_ref(seconds, loop_before, loop_after))
        loop_before = loop_after
    return wall[1:], ref[1:]


def run_worker(args: argparse.Namespace, env: dict, spans_path: Path) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans", str(spans_path)]
    if args.smoke:
        cmd.append("--smoke")
    child = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True)
    try:
        stdout, stderr = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        fail(f"workload did not finish within {CHILD_TIMEOUT_S:.0f} s")
    if child.returncode != 0 or not stdout.strip():
        fail(f"workload exited with code {child.returncode}:\n{stderr.strip()[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def timing_lines(summary: dict, workload: str) -> list[str]:
    """Median and tail of every op kind, on the reference core and on the clock."""
    lines = []
    for kind, t in summary["ref"].items():
        if kind == "pass_s" or (kind == "request" and workload != "curve"):
            continue  # printed as pass_s and request_p50_ms
        wall = summary["wall"][kind]
        if kind == "request":
            kind = "curve"
            lines.append(f"curve_s: {t['p50_ms'] / 1e3:.4f} s per sweep "
                         f"(median, n={t['n']}; wall clock {wall['p50_ms'] / 1e3:.4f} s)")
        else:
            lines.append(f"{kind}_p50_ms: {t['p50_ms']:.3f} ms "
                         f"(n={t['n']}; wall clock {wall['p50_ms']:.3f} ms)")
        if "tail_pct" in t:
            lines.append(f"{kind}_p{t['tail_pct']:g}_ms: {t['tail_ms']:.3f} ms "
                         f"(n={t['n']}, at least 10 beyond; wall clock {wall['tail_ms']:.3f} ms)")
        else:
            lines.append(f"{kind}: no percentile above the median has 10 samples beyond it "
                         f"(n={t['n']})")
    return lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(CONFIGS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="a few requests per pass")
    args = parser.parse_args()

    if not (SRC / "qds_onedecoy" / "__init__.py").is_file():
        fail(f"no program source at {SRC / 'qds_onedecoy'}; run from a source checkout")
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"

    loadavg_start = read_first_line("/proc/loadavg")
    cpus = speed.pin_fastest()
    setup_wall, setup_ref = setup_seconds(str(BENCH_DIR / "data" / CONFIGS[args.workload]), env)
    speed.unpin(cpus)  # the worker picks its own core
    result = run_worker(args, env, OUT_DIR / f"{stem}-spans.npz")

    ref = result["untraced"]["ref"]
    end_to_end = {
        "setup_s": (statistics.median(setup_ref), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MiB"),
        "request_p50_ms": (ref["request"]["p50_ms"], "ms"),
        "pass_s": (ref["pass_s"], "s"),
    }
    if args.trace:
        per_layer = {
            name: (value, "s" if name.endswith("_s") else "count")
            for name, value in result["per_layer"].items()
        }
        units = {"security.probes_per_solve": "probes", "optimizer.feasible_ratio": "ratio",
                 "protocol.key_bits": "bits"}
        per_layer.update({name: (per_layer[name][0], unit) for name, unit in units.items()})
        overhead = result["trace_overhead"]["pass_s"]
        per_layer["trace_overhead.pass_s"] = (overhead, "s")
        per_layer["trace_overhead.pass_pct"] = (100.0 * overhead / ref["pass_s"], "%")
        wanted, available = declared["per_layer"], per_layer
    else:
        wanted, available = declared["end_to_end"], end_to_end
    missing = [m["name"] for m in wanted if m["name"] not in available]
    metrics = {
        m["name"]: {"value": available[m["name"]][0], "unit": m["unit"]}
        for m in wanted if m["name"] in available
    }
    correct = (result["failed"] == 0 and not missing and not result.get("unstable_counts")
               and not result.get("not_exercised"))

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "correct": correct,
        "missing_metrics": missing,
        "machine": {
            "nproc": os.cpu_count(),
            "cpu_model": read_first_line("/proc/cpuinfo", "model name"),
            "python": platform.python_version(),
            "numpy": result["numpy"],
            "git_commit": git_commit(),
            "loadavg_start": loadavg_start,
            "loadavg_end": read_first_line("/proc/loadavg"),
        },
        "setup_s_samples": {"ref": setup_ref, "wall": setup_wall},
        "end_to_end": {name: {"value": v, "unit": u} for name, (v, u) in end_to_end.items()},
        **result,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}  "
          f"untraced passes: {result['untraced']['passes']}  "
          f"requests per pass: {result['requests_per_pass']}")
    for name, (value, unit) in end_to_end.items():
        print(f"{name}: {value:.6g} {unit}")
    print(f"failed_ratio: {result['failed']}/{result['attempted']} failed ops / attempted ops")
    for line in timing_lines(result["untraced"], args.workload):
        print(line)
    if args.trace:
        for name, value in result["trace_overhead"].items():
            print(f"trace_overhead.{name}: {value:+.6g} (traced minus untraced)")
        for name, (value, unit) in sorted(per_layer.items()):
            print(f"{name}: {value:.6g} {unit}")
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    for name in missing:
        print(f"MISSING metric {name}")
    for name in result.get("unstable_counts", []):
        print(f"UNSTABLE count {name} differs between traced passes")
    for name in result.get("not_exercised", []):
        print(f"NOT EXERCISED {name}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
