"""Record the reference universe that the benchmark's inputs are drawn from.

    PYTHONPATH=src python3 benchmarks/record.py

Runs every input that any seed can draw and writes its output to
``data/reference.json``:

* curve: one ``rate-curve`` row per distance 0, 2, ..., 298 km;
* reports: one sampled counts table per distance 0, 1, ..., 299 km,
  Bob's and Charlie's links drawn independently, stored cell by cell
  so later changes to the sampler do not change the inputs; plus the
  exit codes of the four fixed tables;
* sessions: ``demo-sign`` on desk.cfg at 0, 0.5, ..., 59.5 km and
  ``simulate`` on device.cfg at 0, 1, ..., 299 km.  Both solve L from
  expected statistics, so L and the thresholds depend on the distance
  only, not on the session seed or message bit.

Rerun it only when a change is meant to alter these outputs.  It takes
about five minutes on a 2-core x86 VM.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import qds_onedecoy as qds
import workloads as wl
from run import git_commit

CURVE_KM = range(0, 300, 2)
REPORT_KM = range(0, 300)
DEMO_KM = [i / 2 for i in range(120)]
SIMULATE_KM = range(0, 300)
TABLE_SEED = 20200301
LINKS = ("bob_alice", "charlie_alice")


def curve_ref(d: int) -> dict:
    out = wl.run_cli(wl.curve_argv(d))
    if out.error is not None:
        raise RuntimeError(f"rate-curve at {d} km raised {out.error}")
    distance, rate, L, p_sec, feasible = out.stdout.strip().splitlines()[1].split(",")
    row = {"distance_km": float(distance), "rate_bits_per_s": float(rate),
           "L": int(L), "p_sec": float(p_sec), "feasible": feasible}
    return {"km": d, "exit": out.code, "row": row}


def report_entry(d: int, config, workdir) -> dict:
    pc = config.pulse_config()
    ch = config.channel(float(d))
    counts = {}
    for index, link in enumerate(LINKS):
        sample = qds.sample_statistics(pc, ch, np.random.default_rng([TABLE_SEED, d, index]))
        counts[link] = [int(getattr(sample, kind)(basis, intensity))
                        for basis, intensity in wl.CELLS for kind in ("n", "m")]
    entry = {"km": d, "n_pulses": pc.n_pulses, "counts": counts}
    path = workdir / "table.csv"
    wl.write_table(path, entry)
    entry["expect"] = wl.expected_report(wl.run_cli(wl.estimate_argv(str(path))))
    return entry


def main() -> None:
    config = qds.read_config(wl.DEVICE_CFG)
    reference: dict = {"commit": git_commit()}
    with tempfile.TemporaryDirectory(dir=wl.BENCH_DIR) as tmp:
        reference["reports"] = [report_entry(d, config, Path(tmp)) for d in REPORT_KM]
    reference["fixed_tables"] = {
        name: wl.expected_report(wl.run_cli(wl.estimate_argv(str(wl.DATA_DIR / name))))
        for name in wl.FIXED_TABLES
    }
    print("reports done", file=sys.stderr, flush=True)
    reference["demo_sign"] = {
        wl.km(d): wl.expected_report(wl.run_cli(wl.demo_sign_argv(d, 1, 1)))
        for d in DEMO_KM
    }
    print("demo-sign done", file=sys.stderr, flush=True)
    reference["simulate"] = {
        wl.km(d): wl.expected_report(wl.run_cli(wl.simulate_argv(d, 1, 1)))
        for d in SIMULATE_KM
    }
    print("simulate done", file=sys.stderr, flush=True)
    reference["curve"] = [curve_ref(d) for d in CURVE_KM]
    wl.REFERENCE.write_text(json.dumps(reference, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
