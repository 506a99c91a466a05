"""Timings on a reference core: the host's speed swings taken out.

On a shared host a core's speed depends on what runs on its sibling
hyperthread.  On the 2-vCPU VM this benchmark was built on, a fixed
pure-Python loop took 3.4 ms in one minute and 5.4 ms the next (CPU
time followed wall time, so this was the core's speed, not
descheduling), and whole 30-second runs of one workload differed by up
to 1.6x.  No statistic inside one run removes a swing that lasts
minutes, so ops are bracketed by timings of that loop on the same core
(at least every 50 ms of work), and each op's wall time is rescaled to a
core that runs the loop in ``REF_LOOP_MS``:

    ref_ms = wall_ms * REF_LOOP_MS / mean(loop before, loop after)

The loop is pure Python, so the scale follows the ops only as far as
their slowdown under a busy sibling thread follows the loop's.
``scale_check.py`` measures that per op; results/README.md has the
figures for a ``rate-curve`` call (mostly interpreter work) and for
``demo-sign`` and ``simulate`` (mostly numpy).  Wall-clock figures are
kept next to the rescaled ones in every result file.
"""

from __future__ import annotations

import os
from time import perf_counter

#: Loop time of the reference core, about this VM's fast state.
REF_LOOP_MS = 3.5
LOOP_REPEATS = 2


def _loop() -> int:
    total = 0
    for i in range(50_000):
        total += i * i % 7
    return total


def loop_ms() -> float:
    """The loop's time on this core now: the fastest of a few runs."""
    best = float("inf")
    for _ in range(LOOP_REPEATS):
        start = perf_counter()
        _loop()
        best = min(best, perf_counter() - start)
    return best * 1e3


def to_ref(wall_ms: float, loop_before: float, loop_after: float) -> float:
    return wall_ms * REF_LOOP_MS * 2.0 / (loop_before + loop_after)


def pin_fastest() -> set[int]:
    """Pin this process to the allowed CPU that runs the loop fastest now.

    The loop timings that bracket an op must run on the op's core.  Only
    this process's affinity changes; returns the CPUs allowed before.
    """
    try:
        cpus = os.sched_getaffinity(0)
        best = {}
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            best[cpu] = loop_ms()
        os.sched_setaffinity(0, {min(best, key=best.get)})
    except (AttributeError, OSError):  # not Linux, or not permitted
        return set()
    return cpus


def unpin(cpus: set[int]) -> None:
    if cpus:
        os.sched_setaffinity(0, cpus)
