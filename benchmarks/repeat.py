"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 benchmarks/repeat.py --workload reports --seeds 1-10 [--out FILE]

Every run is untraced.  For every metric it prints the per-seed values,
their median and the distance between the first and third quartile as a
share of the median (``statistics.quantiles(values, n=4)``), which is how
a metric's run-to-run spread is compared with its bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", help="also write the summary here as JSON")
    args = parser.parse_args()

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []
    for seed in seed_range(args.seeds):
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(declared["run_seconds"]),
               "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            sys.exit(f"seed {seed}: exit {done.returncode}\n{done.stderr}")
        last = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **last})
        values = {k: round(v["value"], 6) for k, v in last["metrics"].items()}
        print(f"seed {seed}: correct={last['correct']} failed={last['failed']}/"
              f"{last['attempted']} {values}", flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        summary[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": statistics.median(values),
            "spread": spread(values) if len(values) > 1 and statistics.median(values) else None,
            "values": values,
        }
        print(f"{name}: median {summary[name]['median']:.6g} spread {summary[name]['spread']}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "runs": runs, "summary": summary},
            indent=1) + "\n")


if __name__ == "__main__":
    main()
