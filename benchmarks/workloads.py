"""The three workloads, their seeded inputs and the correctness gate.

A workload turns a seed into one *pass*: a fixed list of requests, each
a short sequence of ops.  An op is one in-process call of
``qds_onedecoy.cli.main`` or one attack audit.  Every input is drawn
from the universe recorded in ``data/reference.json`` (distances on a
fixed grid, counts tables stored cell by cell), so every op has an
expected output recorded at the baseline commit whatever the seed.
README.md says why each workload exists and what it should move.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import qds_onedecoy as qds
import qds_onedecoy.cli

BENCH_DIR = Path(__file__).resolve().parent
DATA_DIR = BENCH_DIR / "data"
DEVICE_CFG = str(DATA_DIR / "device.cfg")
DESK_CFG = str(DATA_DIR / "desk.cfg")
REFERENCE = DATA_DIR / "reference.json"

#: The measured tables and the model table, run on every reports pass.
FIXED_TABLES = ("counts_103km.csv", "counts_204km.csv", "counts_280km.csv", "model_103km.csv")
#: Cell order of the stored counts: (basis, intensity), each as n then m.
CELLS = (("Z", "mu"), ("Z", "nu"), ("X", "mu"), ("X", "nu"))

#: Outputs recorded and compared besides the exit code and L, taken at
#: full precision from the security report the command builds (the CLI
#: prints them to 6 significant digits only).
REPORT_KEYS = ("rate_bits_per_s", "p_sec", "s_alpha", "s_upsilon")
#: Relative tolerance on rates and thresholds, the ROADMAP's.
REL_TOL = 1e-9
CURVE_GRID_POINTS = "3"
AUDIT_TRIALS = 20_000
AUDIT_SIGMAS = 5.0

#: Requests per pass.  Every pass draws one input per equal band of the
#: distance grid, so each seed sees the same mix of short and long haul;
#: more bands make the pass time depend less on the seed.
PASS_SIZE = {"curve": 12, "reports": 100, "sessions": 10}
SMOKE_SIZE = {"curve": 2, "reports": 4, "sessions": 2}

#: Functions each workload must call (layer coverage, checked on traced
#: runs); README.md's prediction table says what each should move.
EXERCISED = {
    "curve": (
        "cli.main", "files.read_config", "files.write_rate_curve",
        "optimizer.optimize", "optimizer.evaluate",
        "security.min_signature_length", "security.block_report",
        "finite_key.block_scale", "finite_key.estimate_counts", "finite_key.observed_error_upper",
        "stat_math.binary_entropy", "stat_math.binary_entropy_inverse", "stat_math.gamma_correction",
        "channel.expected_statistics",
    ),
    "reports": (
        "cli.main", "files.read_config", "files.read_counts", "files.format_report",
        "security.min_signature_length", "security.block_report",
        "finite_key.block_scale", "finite_key.estimate_counts", "finite_key.observed_error_upper",
        "stat_math.binary_entropy", "stat_math.binary_entropy_inverse", "stat_math.gamma_correction",
    ),
    "sessions": (
        "cli.main", "files.read_config", "files.format_report",
        "security.min_signature_length", "security.block_report",
        "channel.expected_statistics", "channel.sample_statistics",
        "protocol.run_kgp", "protocol.symmetrize", "protocol.verify",
        "protocol.ProtocolSession.run_distribution", "protocol.ProtocolSession.run_messaging",
        "protocol.attack_repudiation", "protocol.attack_forge", "protocol.exact_forge_success",
    ),
}


def km(value: float) -> str:
    """Distance as the CLI and the reference keys spell it."""
    return f"{value:g}"


@dataclass
class Outcome:
    code: int | None
    stdout: str
    error: str | None = None  # last traceback line when the op raised
    report: qds.SecurityReport | None = None  # the report the command built, if any


@dataclass
class Op:
    kind: str
    run: Callable[[dict], object]
    check: Callable[[object, dict], str | None]


Request = list[Op]


def run_cli(argv: list[str]) -> Outcome:
    """One in-process CLI call, with the security report it built.

    ``estimate``, ``simulate`` and ``demo-sign`` each call ``block_report``
    once from ``cli``; the report is kept so the gate can compare it at
    full precision.  Whatever ``cli`` binds (a span wrapper on traced
    passes) is what gets called.
    """
    out = io.StringIO()
    reports = []
    bound = qds_onedecoy.cli.block_report

    def keep_report(*args, **kwargs):
        reports.append(bound(*args, **kwargs))
        return reports[-1]

    qds_onedecoy.cli.block_report = keep_report
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = qds_onedecoy.cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        return Outcome(None, out.getvalue(), traceback.format_exc().strip().splitlines()[-1])
    finally:
        qds_onedecoy.cli.block_report = bound
    return Outcome(code, out.getvalue(), report=reports[-1] if reports else None)


def parse_fields(text: str) -> dict[str, str]:
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            fields[key] = value
    return fields


def report_values(report: qds.SecurityReport) -> dict:
    """L and REPORT_KEYS of a security report, at full precision."""
    return {"L": report.L, "rate_bits_per_s": report.rate_bits_per_s, "p_sec": report.p_sec,
            "s_alpha": report.thresholds.s_alpha, "s_upsilon": report.thresholds.s_upsilon}


def expected_report(out: Outcome) -> dict:
    """The reference record of one report-building op: exit code, L, REPORT_KEYS."""
    if out.error is not None:
        raise RuntimeError(f"reference op raised {out.error}")
    ref: dict = {"exit": out.code}
    if out.code == 0:
        ref.update(report_values(out.report))
    return ref


def close(got: float, want: float) -> bool:
    return got == want or abs(got - want) <= REL_TOL * max(abs(got), abs(want))


# -- correctness gate ----------------------------------------------------


def check_exit(out: Outcome, ref: dict) -> str | None:
    if out.error is not None:
        return f"raised {out.error}"
    if out.code != ref["exit"]:
        return f"exit code {out.code}, expected {ref['exit']}"
    return None


def check_report(out: Outcome, ref: dict, accept_prefix: str | None = None) -> str | None:
    """Exit code, identical L (printed and reported), rates and thresholds within REL_TOL.

    Rates and thresholds are compared at full precision, from the report
    the command built.  With ``accept_prefix`` the honest demo session
    must also be accepted by both recipients.  Key bits and transcript
    digests are not compared.
    """
    failure = check_exit(out, ref)
    if failure or ref["exit"] != 0:
        return failure
    if out.report is None:
        return "no security report built"
    got = parse_fields(out.stdout)
    values = report_values(out.report)
    try:
        if int(got["block_length"]) != ref["L"] or values["L"] != ref["L"]:
            return f"L {got['block_length']} (report {values['L']}), expected {ref['L']}"
        for key in REPORT_KEYS:
            if not close(values[key], ref[key]):
                return f"{key} {values[key]!r}, expected {ref[key]!r}"
        if accept_prefix is not None:
            for party in ("bob", "charlie"):
                if got[f"{accept_prefix}{party}_accept"] != "true":
                    return f"honest session not accepted by {party}"
    except (KeyError, ValueError) as exc:
        return f"unparseable output: {exc!r}"
    return None


def check_curve_row(out: Outcome, ref: dict) -> str | None:
    failure = check_exit(out, ref)
    if failure:
        return failure
    lines = out.stdout.strip().splitlines()
    if len(lines) != 2:
        return f"expected one CSV row, got {len(lines) - 1}"
    d, rate, L, p_sec, feasible = lines[1].split(",")
    want = ref["row"]
    if feasible != want["feasible"] or int(L) != want["L"]:
        return f"row {lines[1]!r}, expected L={want['L']} feasible={want['feasible']}"
    for name, got in (("distance_km", d), ("rate_bits_per_s", rate), ("p_sec", p_sec)):
        if not close(float(got), want[name]):
            return f"{name} {got}, expected {want[name]!r}"
    return None


def check_audit(result: dict, ctx: dict) -> str | None:
    """The Monte Carlo forge rate lies within AUDIT_SIGMAS of the exact one."""
    exact = result["exact_forge"]
    sigma = math.sqrt(exact * (1.0 - exact) / AUDIT_TRIALS)
    if abs(result["forge"] - exact) > AUDIT_SIGMAS * sigma:
        return f"forge rate {result['forge']} vs exact {exact:.3g} (5 sigma = {5 * sigma:.3g})"
    return None


# -- ops -----------------------------------------------------------------


def curve_argv(d: float) -> list[str]:
    """One rate-curve row: the half-open sweep [d, d + 1) with step 2."""
    return ["rate-curve", "--config", DEVICE_CFG, "--grid-points", CURVE_GRID_POINTS,
            "--from", km(d), "--to", km(d + 1), "--step", "2"]


def estimate_argv(path: str) -> list[str]:
    return ["estimate", "--config", DEVICE_CFG, "--counts", path]


def demo_sign_argv(d: float, seed: int, bit: int) -> list[str]:
    return ["demo-sign", "--config", DESK_CFG, "--distance", km(d),
            "--seed", str(seed), "--message-bit", str(bit)]


def simulate_argv(d: float, seed: int, bit: int) -> list[str]:
    return ["simulate", "--config", DEVICE_CFG, "--distance", km(d),
            "--seed", str(seed), "--message-bit", str(bit)]


def curve_op(ref: dict) -> Op:
    argv = curve_argv(ref["km"])
    return Op("rate_curve", lambda ctx: run_cli(argv), lambda out, ctx: check_curve_row(out, ref))


def estimate_op(path: str, ref: dict) -> Op:
    argv = estimate_argv(path)
    return Op("estimate", lambda ctx: run_cli(argv), lambda out, ctx: check_report(out, ref))


def demo_sign_op(d: float, seed: int, bit: int, ref: dict) -> Op:
    argv = demo_sign_argv(d, seed, bit)

    def check(out: Outcome, ctx: dict) -> str | None:
        failure = check_report(out, ref, accept_prefix="")
        if failure is None:
            got = parse_fields(out.stdout)
            ctx["audit"] = (int(got["block_length"]), float(got["s_alpha"]), float(got["s_upsilon"]))
        return failure

    return Op("demo_sign", lambda ctx: run_cli(argv), check)


def audit_op(seed: int) -> Op:
    """Attack audit at the preceding demo session's L and printed thresholds."""

    def run(ctx: dict) -> dict:
        L, s_alpha, s_upsilon = ctx["audit"]
        th = qds.Thresholds(s_alpha, s_upsilon)
        return {
            "repudiation": qds.attack_repudiation(
                AUDIT_TRIALS, L, th, (s_alpha + s_upsilon) / 2.0, seed=seed
            ),
            "forge": qds.attack_forge(AUDIT_TRIALS, L, th, seed=seed),
            "exact_forge": qds.exact_forge_success(L, s_upsilon),
        }

    return Op("audit", run, check_audit)


def simulate_op(d: float, seed: int, bit: int, ref: dict) -> Op:
    argv = simulate_argv(d, seed, bit)
    return Op("simulate", lambda ctx: run_cli(argv),
              lambda out, ctx: check_report(out, ref, accept_prefix="demo_"))


# -- passes --------------------------------------------------------------


def stratified(grid: list, bands: int, rng: random.Random) -> list:
    """One point drawn uniformly from each of ``bands`` equal runs of ``grid``."""
    n = len(grid)
    return [grid[rng.randrange(n * i // bands, n * (i + 1) // bands)] for i in range(bands)]


def write_table(path: Path, entry: dict) -> None:
    lines = [f"# distance_km={float(entry['km'])!r}", f"# n_pulses={entry['n_pulses']!r}",
             "link,basis,intensity,n,m"]
    for link, cells in entry["counts"].items():
        for i, (basis, intensity) in enumerate(CELLS):
            lines.append(f"{link},{basis},{intensity},{cells[2 * i]},{cells[2 * i + 1]}")
    path.write_text("\n".join(lines) + "\n")


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def make_pass(workload: str, seed: int, smoke: bool, workdir: Path, reference: dict) -> list[Request]:
    """The seeded requests of one pass; inputs are written before timing starts."""
    rng = random.Random(f"{workload}:{seed}")
    size = (SMOKE_SIZE if smoke else PASS_SIZE)[workload]
    if workload == "curve":
        return [[curve_op(ref) for ref in stratified(reference["curve"], size, rng)]]
    if workload == "reports":
        requests = []
        for entry in stratified(reference["reports"], size, rng):
            path = workdir / f"table_{entry['km']}km.csv"
            write_table(path, entry)
            requests.append([estimate_op(str(path), entry["expect"])])
        for name in FIXED_TABLES:
            requests.append([estimate_op(str(DATA_DIR / name), reference["fixed_tables"][name])])
        rng.shuffle(requests)
        return requests
    if workload == "sessions":
        demo, sim = reference["demo_sign"], reference["simulate"]
        # the longest link is in every pass: its block length sets the
        # memory peak, so peak_rss_mb does not hinge on one draw
        sim_km = stratified(sorted(sim, key=float)[:-1], size - 1, rng) + [max(sim, key=float)]
        rng.shuffle(sim_km)
        requests = []
        for demo_km, simulate_km in zip(stratified(sorted(demo, key=float), size, rng), sim_km):
            demo_seed, sim_seed = rng.randrange(2**31), rng.randrange(2**31)
            requests.append([
                demo_sign_op(float(demo_km), demo_seed, rng.randrange(2), demo[demo_km]),
                audit_op(demo_seed),
                simulate_op(float(simulate_km), sim_seed, rng.randrange(2), sim[simulate_km]),
            ])
        return requests
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(PASS_SIZE)}")
