"""How well the reference-core rescaling (speed.py) holds for one op.

    PYTHONPATH=src python3 benchmarks/scale_check.py --op demo_sign --seconds 90

Repeats one op at a fixed input for ``--seconds``, each call bracketed by
timings of the reference loop as in a benchmark pass, and prints the
median wall-clock and rescaled time of each third of the calls.  If the
rescaling tracks the host's speed for this op, the rescaled medians
agree while the wall-clock ones move.
"""

from __future__ import annotations

import argparse
import statistics
import time
from time import perf_counter

import speed
import workloads as wl

OPS = {
    "curve": lambda: wl.curve_argv(100),
    "demo_sign": lambda: wl.demo_sign_argv(30.0, 4, 0),
    "simulate": lambda: wl.simulate_argv(150.0, 4, 0),
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--op", required=True, choices=sorted(OPS))
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()

    argv = OPS[args.op]()
    speed.pin_fastest()
    wl.run_cli(argv)  # warm-up
    wall, ref = [], []
    before = speed.loop_ms()
    end = time.monotonic() + args.seconds
    while time.monotonic() < end:
        start = perf_counter()
        if wl.run_cli(argv).code != 0:
            raise SystemExit(f"{args.op} failed")
        ms = (perf_counter() - start) * 1e3
        after = speed.loop_ms()
        wall.append(ms)
        ref.append(speed.to_ref(ms, before, after))
        before = after
    third = len(wall) // 3
    print(f"{args.op}: {len(wall)} calls in {args.seconds:g} s")
    for label, values in (("wall clock", wall), ("rescaled", ref)):
        medians = [statistics.median(values[i * third:(i + 1) * third]) for i in range(3)]
        print(f"  {label} median per third: {', '.join(f'{m:.1f}' for m in medians)} ms; "
              f"largest / smallest - 1 = {max(medians) / min(medians) - 1:.3f}")


if __name__ == "__main__":
    main()
