"""The benchmark's own smoke test; it is not part of the repository's test suite.

    python3 -m pytest -q benchmarks/test_bench.py

Runs every workload at minimal size, untraced and traced, through the
real entry point and requires the correctness gate to pass; then shows
that the gate rejects an op whose recorded L or rate is perturbed, also
by less than the 6 significant digits the CLI prints.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import workloads as wl  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_smoke_run_passes_the_gate(workload, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], done.stdout
    assert result["failed"] == 0 and result["attempted"] > 0
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}


def test_same_seed_same_inputs(tmp_path):
    reference = wl.load_reference()

    def tables(seed):
        wl.make_pass("reports", seed, False, tmp_path / str(seed), reference)
        return sorted(p.read_text() for p in (tmp_path / str(seed)).glob("*.csv"))

    for seed in (5, 6):
        (tmp_path / str(seed)).mkdir()
    assert tables(5) == tables(5)
    assert tables(5) != tables(6)


def _first_feasible(entries):
    return next(e for e in entries if e["expect"]["exit"] == 0)


#: Relative changes above REL_TOL but far below the printed 6 digits.
BELOW_PRINTED = (1 + 1e-8, 1 - 1e-8)


@pytest.mark.parametrize("field, change", [
    ("L", lambda v: v + 2),
    ("rate_bits_per_s", lambda v: v * BELOW_PRINTED[0]),
    ("p_sec", lambda v: v * BELOW_PRINTED[1]),
    ("s_alpha", lambda v: v * BELOW_PRINTED[0]),
    ("s_upsilon", lambda v: v * BELOW_PRINTED[1]),
    ("exit", lambda v: 3),
])
def test_gate_rejects_a_perturbed_report(tmp_path, field, change):
    entry = copy.deepcopy(_first_feasible(wl.load_reference()["reports"]))
    path = tmp_path / "table.csv"
    wl.write_table(path, entry)
    out = wl.run_cli(wl.estimate_argv(str(path)))
    assert wl.check_report(out, entry["expect"]) is None
    entry["expect"][field] = change(entry["expect"][field])
    assert wl.check_report(out, entry["expect"]) is not None


@pytest.mark.parametrize("field, change", [
    ("L", lambda v: v - 2),
    ("rate_bits_per_s", lambda v: v * (1 + 1e-8)),
])
def test_gate_rejects_a_perturbed_curve_row(field, change):
    ref = copy.deepcopy(wl.load_reference()["curve"][-1])
    out = wl.run_cli(wl.curve_argv(ref["km"]))
    assert wl.check_curve_row(out, ref) is None
    ref["row"][field] = change(ref["row"][field])
    assert wl.check_curve_row(out, ref) is not None


@pytest.mark.parametrize("field", wl.REPORT_KEYS)
@pytest.mark.parametrize("command", ["demo_sign", "simulate"])
def test_gate_rejects_a_session_value_changed_below_printed_digits(command, field):
    ref = copy.deepcopy(wl.load_reference()[command]["10"])
    argv = wl.demo_sign_argv(10.0, 4, 0) if command == "demo_sign" else wl.simulate_argv(10.0, 4, 0)
    prefix = "" if command == "demo_sign" else "demo_"
    out = wl.run_cli(argv)
    assert wl.check_report(out, ref, accept_prefix=prefix) is None
    ref[field] *= BELOW_PRINTED[0]
    assert field in wl.check_report(out, ref, accept_prefix=prefix)


def test_run_cli_restores_the_cli_binding():
    bound = wl.qds_onedecoy.cli.block_report
    wl.run_cli(wl.demo_sign_argv(10.0, 4, 0))
    assert wl.qds_onedecoy.cli.block_report is bound


def test_gate_rejects_a_forge_rate_far_from_exact():
    exact = 0.01
    assert wl.check_audit({"forge": exact, "exact_forge": exact}, {}) is None
    assert wl.check_audit({"forge": 2 * exact, "exact_forge": exact}, {}) is not None


def test_gate_rejects_a_rejected_honest_session():
    ref = wl.load_reference()["demo_sign"]["10"]
    out = wl.run_cli(wl.demo_sign_argv(10.0, 4, 0))
    assert wl.check_report(out, ref, accept_prefix="") is None
    out.stdout = out.stdout.replace("charlie_accept: true", "charlie_accept: false")
    assert "charlie" in wl.check_report(out, ref, accept_prefix="")


def test_gate_counts_a_traceback_as_failure():
    out = wl.Outcome(code=None, stdout="", error="RuntimeError: boom")
    assert wl.check_exit(out, {"exit": 0}).startswith("raised")
