"""Command-line front end.

Four commands share one configuration format:

  estimate    security report from a measured counts table
  simulate    model a link, solve the block length, demo the messaging
  rate-curve  optimised rate versus distance, as CSV
  demo-sign   bit-level protocol run with verdicts, desk scale only

Exit codes: 0 success, 2 unusable input (parse or validation), 3
infeasible request or protocol failure.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .channel import DESK_SCALE_MAX_PULSES, expected_statistics, sample_statistics
from .files import (
    FileFormatError,
    default_config_path,
    format_report,
    read_config,
    read_counts,
    write_rate_curve,
)
from .optimizer import SearchSpace, optimize
from .protocol import LINKS, ProtocolError, ProtocolSession, rng_stream
from .security import Infeasible, block_report, min_signature_length

__all__ = ["main"]


def _add_config_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--config",
        default=None,
        help=f"run configuration file (default: ${'{'}QDS_CONFIG{'}'})",
    )


def _load_config(args: argparse.Namespace):
    path = args.config or default_config_path()
    if path is None:
        raise FileFormatError(
            "no configuration: pass --config or set the QDS_CONFIG environment variable"
        )
    return read_config(path)


def _emit(text: str, out_path: str | None) -> None:
    sys.stdout.write(text)
    if out_path:
        with open(out_path, "w") as fp:
            fp.write(text)


def _report(config, counts_by_link, pc, ch, L: int | None = None):
    """Security report at ``L``, or at the smallest L meeting the target.

    Solving and reporting share the configured test-sample size.
    """
    if L is None:
        [L] = min_signature_length(
            [(counts_by_link, pc)], config.budget, config.alpha, config.eps,
            config.target_psec, k_test=config.k_test,
        )
        if isinstance(L, Infeasible):
            raise L
    return block_report(
        counts_by_link, pc, ch, config.budget, config.alpha, config.eps, L,
        k_test=config.k_test,
    )


def cmd_estimate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    counts_by_link, distance_km, n_pulses = read_counts(args.counts)
    pc = config.pulse_config(n_pulses=n_pulses)
    ch = config.channel(distance_km)
    report = _report(config, counts_by_link, pc, ch, args.block_length)
    _emit(format_report(report, distance_km=distance_km, budget=config.budget), args.out)
    return 0


def _counts_for_simulation(pc, ch, sampled: bool, seed: int):
    if sampled:
        return {
            link: sample_statistics(pc, ch, rng_stream(seed, link, "counts"))
            for link in LINKS
        }
    expected = expected_statistics(pc, ch)
    return {link: expected for link in LINKS}


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    seed = args.seed if args.seed is not None else config.seed
    pc = config.pulse_config()
    ch = config.channel(args.distance)
    counts_by_link = _counts_for_simulation(pc, ch, args.sampled, seed)
    report = _report(config, counts_by_link, pc, ch)
    L = report.L
    text = format_report(report, distance_km=args.distance, budget=config.budget)

    # end-to-end messaging demo at the solved block length; bit-level keys
    # when the pulse budget is desk scale and the pool can afford both
    # message-value blocks, synthetic keys at the model error rate otherwise
    pool = min(c.n_total("Z") for c in counts_by_link.values())
    bit_mode = pc.n_pulses <= DESK_SCALE_MAX_PULSES and pool >= 2 * L + report.k_test
    session = ProtocolSession(
        pc, ch, L, seed=seed, k_test=report.k_test, synthetic=not bit_mode
    )
    session.run_distribution()
    result = session.run_messaging(args.message_bit, report.thresholds)
    text += f"demo_mode: {'bit-level' if bit_mode else 'synthetic'}\n"
    text += f"demo_message_bit: {result.message_bit}\n"
    text += f"demo_bob_accept: {str(result.bob_accept).lower()}\n"
    text += (
        "demo_charlie_accept: "
        + ("none" if result.charlie_accept is None else str(result.charlie_accept).lower())
        + "\n"
    )
    text += f"demo_transcript_messages: {len(session.transcript)}\n"
    _emit(text, args.out)
    if args.transcript:
        with open(args.transcript, "w") as fp:
            session.export_transcript(fp)
    return 0


def cmd_rate_curve(args: argparse.Namespace) -> int:
    config = _load_config(args)
    flags = {"--from": args.km_from, "--to": args.km_to, "--step": args.km_step}
    for flag, value in flags.items():
        if not math.isfinite(value):
            raise FileFormatError(f"{flag} must be finite, got {value:g}")
    if args.km_step <= 0:
        raise FileFormatError(f"--step must be positive, got {args.km_step:g}")
    if args.km_from > args.km_to:
        raise FileFormatError(
            f"--from {args.km_from:g} exceeds --to {args.km_to:g}"
        )
    space = SearchSpace(grid_points=args.grid_points)
    rows = []
    # half-open sweep: --from is included, --to is not; --from equal to
    # --to yields a header-only file
    distances = np.arange(args.km_from, args.km_to, args.km_step)
    for distance in distances:
        ch = config.channel(float(distance))
        result = optimize(
            space, ch, config.budget, config.alpha, config.eps, config.target_psec,
            n_pulses=config.source.n_pulses,
        )
        if result.best is None:
            rows.append(
                {
                    "distance_km": float(distance),
                    "rate_bits_per_s": 0.0,
                    "L": 0,
                    "p_sec": 1.0,
                    "feasible": False,
                }
            )
        else:
            rows.append(
                {
                    "distance_km": float(distance),
                    "rate_bits_per_s": result.best.rate,
                    "L": result.best.L,
                    "p_sec": result.best.report.p_sec,
                    "feasible": True,
                }
            )
    if args.out:
        with open(args.out, "w", newline="") as fp:
            write_rate_curve(fp, rows)
    else:
        write_rate_curve(sys.stdout, rows)
    return 0


def cmd_demo_sign(args: argparse.Namespace) -> int:
    config = _load_config(args)
    seed = args.seed if args.seed is not None else config.seed
    pc = config.pulse_config()
    if pc.n_pulses > DESK_SCALE_MAX_PULSES:
        raise FileFormatError(
            f"demo-sign materialises key bits and needs n_pulses <= "
            f"{DESK_SCALE_MAX_PULSES:.0e}, got {pc.n_pulses:.3g}"
        )
    ch = config.channel(args.distance)
    counts_by_link = _counts_for_simulation(pc, ch, sampled=False, seed=seed)
    report = _report(config, counts_by_link, pc, ch)
    L = report.L
    session = ProtocolSession(pc, ch, L, seed=seed, k_test=report.k_test)
    session.run_distribution()
    print(f"distance_km: {args.distance:g}")
    print(f"block_length: {L}")
    for link in LINKS:
        kgp = session.kgp_results[link]
        print(
            f"kgp_{link}: pool={len(kgp.tx_pool)} "
            f"test_errors={kgp.test_errors}/{kgp.test_size} "
            f"test_qber={kgp.test_errors / kgp.test_size:.4f}"
        )
    th = report.thresholds
    print(f"s_alpha: {th.s_alpha:.6g}")
    print(f"s_upsilon: {th.s_upsilon:.6g}")
    result = session.run_messaging(args.message_bit, th)
    limit_a = th.s_alpha * L / 2.0
    limit_u = th.s_upsilon * L / 2.0
    b_own, b_recv = result.bob_mismatches
    print(f"bob_mismatches: own={b_own} received={b_recv} limit={limit_a:.1f}")
    print(f"bob_accept: {str(result.bob_accept).lower()}")
    if result.charlie_mismatches is None:
        print("charlie_accept: none (aborted)")
    else:
        c_own, c_recv = result.charlie_mismatches
        print(f"charlie_mismatches: own={c_own} received={c_recv} limit={limit_u:.1f}")
        print(f"charlie_accept: {str(result.charlie_accept).lower()}")
    print(f"transcript_messages: {len(session.transcript)}")
    if args.transcript:
        with open(args.transcript, "w") as fp:
            session.export_transcript(fp)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qds",
        description="Finite-size analysis and simulation of three-party "
        "quantum digital signatures over one-decoy links.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="security report from a counts table")
    _add_config_arg(p_est)
    p_est.add_argument("--counts", required=True, help="sifted counts CSV")
    p_est.add_argument(
        "--block-length", type=int, default=None,
        help="report at this block length instead of solving for the smallest",
    )
    p_est.add_argument("--out", default=None, help="also write the report here")
    p_est.set_defaults(func=cmd_estimate)

    p_sim = sub.add_parser("simulate", help="model a link and run the full pipeline")
    _add_config_arg(p_sim)
    p_sim.add_argument("--distance", type=float, required=True, help="link length in km")
    p_sim.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_sim.add_argument(
        "--sampled", action="store_true",
        help="draw one statistical realisation instead of using expectations",
    )
    p_sim.add_argument("--message-bit", type=int, choices=(0, 1), default=1)
    p_sim.add_argument("--out", default=None, help="also write the report here")
    p_sim.add_argument("--transcript", default=None, help="write the transcript JSONL here")
    p_sim.set_defaults(func=cmd_simulate)

    p_curve = sub.add_parser("rate-curve", help="optimised rate versus distance (CSV)")
    _add_config_arg(p_curve)
    p_curve.add_argument("--from", dest="km_from", type=float, default=0.0,
                         help="first distance in km (included)")
    p_curve.add_argument("--to", dest="km_to", type=float, default=300.0,
                         help="end of the sweep in km (excluded)")
    p_curve.add_argument("--step", dest="km_step", type=float, default=20.0)
    p_curve.add_argument(
        "--grid-points", type=int, default=4,
        help="grid resolution per parameter for the source search",
    )
    p_curve.add_argument("--out", default=None, help="write the CSV here instead of stdout")
    p_curve.set_defaults(func=cmd_rate_curve)

    p_demo = sub.add_parser("demo-sign", help="bit-level signing demo (desk scale)")
    _add_config_arg(p_demo)
    p_demo.add_argument("--distance", type=float, required=True, help="link length in km")
    p_demo.add_argument("--message-bit", type=int, choices=(0, 1), default=1)
    p_demo.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_demo.add_argument("--transcript", default=None, help="write the transcript JSONL here")
    p_demo.set_defaults(func=cmd_demo_sign)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FileFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (Infeasible, ProtocolError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
