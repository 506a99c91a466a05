"""Command-line front end.

Four commands share one configuration format:

  estimate    security report from a measured counts table
  simulate    model a link, solve the block length, demo the messaging
  rate-curve  optimised rate versus distance, as CSV
  demo-sign   bit-level protocol run with verdicts, desk scale only

Exit codes: 0 success, 2 unusable input (parse or validation, or a file
that cannot be read or written), 3 infeasible request or protocol
failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys

import numpy as np

from .channel import DESK_SCALE_MAX_PULSES, LINKS, model_links, sample_statistics
from .files import (
    CONFIG_ENV_VAR,
    FileFormatError,
    format_report,
    read_config,
    read_counts,
    write_rate_curve,
)
from .security import Infeasible, block_report

__all__ = ["main"]

#: Most distances one ``rate-curve`` sweep may have (the default has 15).
_MAX_SWEEP_ROWS = 10_000


def _add_config_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--config",
        default=None,
        help=f"run configuration file (default: ${'{'}QDS_CONFIG{'}'})",
    )


def _load_config(args: argparse.Namespace):
    path = args.config or os.environ.get(CONFIG_ENV_VAR)
    if not path:
        raise FileFormatError(
            "no configuration: pass --config or set the QDS_CONFIG environment variable"
        )
    return read_config(path)


def _seed(args: argparse.Namespace, config) -> int:
    """The ``--seed`` flag when given, else the configured seed."""
    if args.seed is None:
        return config.seed
    if args.seed < 0:
        raise FileFormatError(f"--seed must be non-negative, got {args.seed}")
    return args.seed


def _emit(text: str, out) -> None:
    sys.stdout.write(text)
    if out:
        out.write(text)


def _channel(config, args: argparse.Namespace):
    """The configured link at ``--distance``; a bad distance names the flag."""
    try:
        return config.channel(args.distance)
    except ValueError as exc:
        raise FileFormatError(f"--distance: {exc}") from exc


def cmd_estimate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    counts_by_link, distance_km, n_pulses = read_counts(args.counts)
    try:
        pc = config.pulse_config(n_pulses=n_pulses)
        ch = config.channel(distance_km)
    except ValueError as exc:  # the configuration is valid: the table's preamble is not
        raise FileFormatError(f"{args.counts}: {exc}") from exc
    try:
        report = block_report(counts_by_link, pc, ch, config.target, args.block_length)
    except ValueError as exc:
        if args.block_length is None:
            raise
        # the configuration and the table are valid: the length is not
        raise FileFormatError(f"--block-length: {exc}") from exc
    _emit(format_report(report, distance_km=distance_km, budget=config.target.budget), args.out)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from .protocol import ProtocolSession, rng_stream

    config = _load_config(args)
    seed = _seed(args, config)
    pc = config.pulse_config()
    ch = _channel(config, args)
    if args.sampled:
        counts_by_link = {
            link: sample_statistics(pc, ch, rng_stream(seed, link, "counts"))
            for link in LINKS
        }
    else:
        counts_by_link = model_links(pc, ch)
    report = block_report(counts_by_link, pc, ch, config.target)
    text = format_report(report, distance_km=args.distance, budget=config.target.budget)

    # end-to-end messaging demo at the solved block length; bit-level keys
    # when the pulse budget is desk scale and both links' drawn pools can
    # afford the test sample and both blocks, synthetic keys otherwise
    session = ProtocolSession(pc, ch, report.L, seed=seed, k_test=report.k_test)
    session.run_distribution(fallback=True)
    bob, charlie = session.run_messaging(args.message_bit, report.thresholds)
    text += f"demo_mode: {'bit-level' if session.bit_mode else 'synthetic'}\n"
    text += f"demo_message_bit: {args.message_bit}\n"
    text += f"demo_bob_accept: {str(bob[0]).lower()}\n"
    text += (
        "demo_charlie_accept: "
        + ("none" if charlie is None else str(charlie[0]).lower())
        + "\n"
    )
    text += f"demo_transcript_messages: {len(session.transcript)}\n"
    _emit(text, args.out)
    if args.transcript:
        session.export_transcript(args.transcript)
    return 0


def cmd_rate_curve(args: argparse.Namespace) -> int:
    from .optimizer import SearchSpace, optimize

    config = _load_config(args)
    flags = {"--from": args.km_from, "--to": args.km_to, "--step": args.km_step}
    for flag, value in flags.items():
        if not math.isfinite(value):
            raise FileFormatError(f"{flag} must be finite, got {value:g}")
    if args.km_from < 0:
        raise FileFormatError(f"--from must be non-negative, got {args.km_from:g}")
    if args.km_step <= 0:
        raise FileFormatError(f"--step must be positive, got {args.km_step:g}")
    if args.km_from > args.km_to:
        raise FileFormatError(
            f"--from {args.km_from:g} exceeds --to {args.km_to:g}"
        )
    # half-open sweep: --from is included, --to is not; --from equal to
    # --to yields a header-only file.  np.arange's length, counted before it
    # is allocated, rounds up, so a float step can add a distance at --to
    # or past it, which is dropped before the sweep is counted.
    rows = np.ceil((args.km_to - args.km_from) / args.km_step)
    if rows <= _MAX_SWEEP_ROWS + 1:
        sweep = np.arange(args.km_from, args.km_to, args.km_step)
        sweep = sweep[sweep < args.km_to]
        rows = len(sweep)
    if not rows <= _MAX_SWEEP_ROWS:
        raise FileFormatError(
            f"--from {args.km_from:g} --to {args.km_to:g} --step {args.km_step:g} sweeps "
            f"{rows:g} distances, more than {_MAX_SWEEP_ROWS}"
        )
    try:
        space = SearchSpace(grid_points=args.grid_points)
    except ValueError as exc:
        raise FileFormatError(f"--grid-points: {exc}") from exc
    results = [
        (distance, optimize(space, config.channel(distance), config.target, config.source.n_pulses))
        for distance in sweep.tolist()
    ]
    write_rate_curve(args.out or sys.stdout, results)
    return 0


def cmd_demo_sign(args: argparse.Namespace) -> int:
    from .protocol import ProtocolSession

    config = _load_config(args)
    seed = _seed(args, config)
    pc = config.pulse_config()
    if pc.n_pulses > DESK_SCALE_MAX_PULSES:
        raise FileFormatError(
            f"demo-sign materialises key bits and needs n_pulses <= "
            f"{DESK_SCALE_MAX_PULSES:.0e}, got {pc.n_pulses:.3g}"
        )
    ch = _channel(config, args)
    counts_by_link = model_links(pc, ch)
    report = block_report(counts_by_link, pc, ch, config.target)
    L = report.L
    session = ProtocolSession(pc, ch, L, seed=seed, k_test=report.k_test)
    session.run_distribution()
    print(f"distance_km: {args.distance:g}")
    print(f"block_length: {L}")
    for link in LINKS:
        kgp = session.kgp_results[link]
        print(
            f"kgp_{link}: pool={len(kgp.tx_pool)} "
            f"test_errors={kgp.test_errors}/{session.k_test} "
            f"test_qber={kgp.test_errors / session.k_test:.4f}"
        )
    th = report.thresholds
    print(f"s_alpha: {th.s_alpha:.6g}")
    print(f"s_upsilon: {th.s_upsilon:.6g}")
    bob, charlie = session.run_messaging(args.message_bit, th)
    limit_a = th.s_alpha * L / 2.0
    limit_u = th.s_upsilon * L / 2.0
    bob_ok, b_own, b_recv = bob
    print(f"bob_mismatches: own={b_own} received={b_recv} limit={limit_a:.1f}")
    print(f"bob_accept: {str(bob_ok).lower()}")
    if charlie is None:
        print("charlie_accept: none (aborted)")
    else:
        charlie_ok, c_own, c_recv = charlie
        print(f"charlie_mismatches: own={c_own} received={c_recv} limit={limit_u:.1f}")
        print(f"charlie_accept: {str(charlie_ok).lower()}")
    print(f"transcript_messages: {len(session.transcript)}")
    if args.transcript:
        session.export_transcript(args.transcript)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process on first use."""
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
        help="grid resolution per parameter for the source search (2 to 10)",
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
        with contextlib.ExitStack() as outputs:
            # every output is opened before the work, as a shell redirection
            # opens it, so that a path that cannot be written fails at once;
            # newline="" keeps the CSV writer's line ends as they are
            for name in ("out", "transcript"):
                if path := getattr(args, name, None):
                    setattr(args, name, outputs.enter_context(open(path, "w", newline="")))
            return args.func(args)
    except (FileFormatError, ValueError, OSError) as exc:  # OSError names its file
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Infeasible as exc:  # a ProtocolError among them
        print(f"infeasible: {exc}" + (f": {exc.cause}" if exc.cause else ""), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
