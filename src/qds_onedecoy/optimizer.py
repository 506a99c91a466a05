"""Search for source settings that maximise the signature rate.

The objective (rate at the smallest feasible block length) is cheap but
not smooth: the feasible region has a boundary where the estimates
saturate, and the block-length solver returns integers.  A coarse grid
pass followed by shrinking coordinate scans is robust to both, needs no
gradients, and is deterministic, including its tie-breaking.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channel import ChannelParams, PulseConfig
from .protocol import model_links
from .security import (
    SecurityReport,
    SecurityTarget,
    Verdicts,
    _sifted_yield,
    _signing_time,
    block_report,
    longest_block_at_rate,
    min_signature_length,
)

__all__ = [
    "PARAM_NAMES",
    "SearchSpace",
    "OptimizeResult",
    "evaluate",
    "maximize",
    "optimize",
]

PARAM_NAMES = ("mu", "nu", "p_mu", "p_z_tx", "p_z_rx")
#: Largest ``SearchSpace.grid_points``: the grid pass solves grid_points**5
#: settings in one batch, 10**5 at this bound.
_MAX_GRID_POINTS = 10


@dataclass(frozen=True)
class SearchSpace:
    """Box constraints for the five source parameters, plus grid resolution."""

    mu: tuple[float, float] = (0.2, 0.9)
    nu: tuple[float, float] = (0.02, 0.35)
    p_mu: tuple[float, float] = (0.5, 0.95)
    p_z_tx: tuple[float, float] = (0.55, 0.95)
    p_z_rx: tuple[float, float] = (0.55, 0.95)
    grid_points: int = 4

    def __post_init__(self) -> None:
        for name in PARAM_NAMES:
            lo, hi = getattr(self, name)
            if not lo < hi:
                raise ValueError(f"{name} bounds must satisfy lo < hi, got ({lo}, {hi})")
            if name == "mu" or name == "nu":
                if not (0.0 < lo and hi <= 1.0):
                    raise ValueError(
                        f"{name} bounds must lie in (0, 1], got ({lo}, {hi})"
                    )
            else:
                if not (0.0 < lo and hi < 1.0):
                    raise ValueError(
                        f"{name} bounds must lie strictly inside (0, 1), got ({lo}, {hi})"
                    )
        if not 2 <= self.grid_points <= _MAX_GRID_POINTS:
            raise ValueError(
                f"grid_points must lie in [2, {_MAX_GRID_POINTS}], got {self.grid_points}"
            )

    def bounds(self, name: str) -> tuple[float, float]:
        return getattr(self, name)


@dataclass(frozen=True)
class OptimizeResult:
    """The best settings and the full report at their smallest feasible
    L (both None when no setting is feasible), the settings evaluated, how
    many of them are feasible, and how many of those were pruned against
    an incumbent.

    ``pruned`` depends on the incumbent each setting was evaluated
    against: one that ``maximize`` evaluates ahead, against a lower
    incumbent, may get an exact rate where a search of one scan at a time
    would prune it.  ``evaluations`` and ``n_feasible`` do not.
    """

    params: PulseConfig | None
    report: SecurityReport | None
    evaluations: int
    n_feasible: int
    pruned: int


#: Points of the grid batch ``evaluate`` solves first, evenly strided, to
#: find an incumbent for the rest.  On the default box at 12-287 km, 16
#: leave 1 or 2 of the other 200 grid-3 points unpruned (the 16 of highest
#: yield leave about 10); 8 to 32 cost about the same.
SEED_POINTS = 16
#: Coordinate-scan rounds after the grid pass, and the points of each scan.
DESCENT_ROUNDS = 4
SCAN_POINTS = 5


def evaluate(
    points: np.ndarray,
    ch: ChannelParams,
    target: SecurityTarget,
    n_pulses: float,
    incumbent: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Rate at the smallest feasible block length of each source setting,
    the settings solved as one batch.

    ``points`` holds one setting per row, the coordinates ``PARAM_NAMES``
    as columns, each sending ``n_pulses`` pulses.  Returns two arrays
    over the settings, in the encoding ``maximize`` ranks: the rate of
    ``block_report`` at the solved L, NaN where infeasible and -inf where
    pruned; and that L where the rate is exact, 0 elsewhere.  A target
    below the structural floor is a configuration error and propagates
    instead of reading as infeasible.

    Given a positive ``incumbent`` rate (the default, 0, prunes nothing),
    a setting that cannot reach it is only shown so: it is solved with
    its cap at the longest block that signs at the incumbent's rate
    (``longest_block_at_rate``), and comes back pruned when infeasible
    there.  Every setting that can tie or beat the incumbent gets its
    exact L and rate.

    An incumbent of -inf (none found yet) says that every setting of the
    batch is taken at once, so one that cannot tie the best of the batch
    need not be solved exactly: it may come back pruned.  A batch of more
    than ``SEED_POINTS`` settings first solves an evenly strided seed of
    them, which race (``min_signature_length``'s ``race``), and the rest
    against the best rate found; the best seed is solved exactly.  Each
    solve builds the stack, counts and sifted yields of its own rows.
    """
    rate = np.full(len(points), np.nan)
    length = np.zeros(len(points), dtype=np.int64)

    def solve(rows: np.ndarray, incumbent: float) -> None:
        stack = PulseConfig.stack(points[rows], n_pulses=n_pulses)
        counts_by_link = model_links(stack, ch)
        y = _sifted_yield(counts_by_link, stack).ravel()
        cap = race = None
        if incumbent == -math.inf:
            race = y, ch.clock_hz
        elif incumbent > 0.0:
            cap = longest_block_at_rate(incumbent, y, ch.clock_hz)
        L, code, _ = min_signature_length(counts_by_link, stack, target, cap=cap, race=race)
        # rate the solved settings only, as the others may have no yield
        exact = code == Verdicts.SOLVED
        rate[rows[code == Verdicts.PRUNED]] = -math.inf
        rate[rows[exact]] = 1.0 / _signing_time(L[exact], y[exact], ch.clock_hz)
        length[rows[exact]] = L[exact]

    rows = np.arange(len(points))
    if incumbent == -math.inf and len(points) > SEED_POINTS:
        stride = -(-len(points) // SEED_POINTS)
        solve(rows[::stride], incumbent)
        incumbent = np.fmax.reduce(rate[::stride], initial=-math.inf)
        rows = rows[rows % stride != 0]
    solve(rows, incumbent)
    return rate, length


def maximize(
    space: SearchSpace,
    objective: Callable[[np.ndarray, float], Sequence[float | None] | np.ndarray],
) -> tuple[dict[str, float] | None, float, int, int, int]:
    """Grid pass plus shrinking coordinate scans over the box.

    ``objective`` maps an array of points, one row each with the
    coordinates ``PARAM_NAMES`` as columns, and the incumbent (the best
    value so far, -inf before any) to one value per row: NaN or None when
    infeasible.  For a point that cannot reach the incumbent it may return
    -inf instead of its value, and so in the grid call, whose points are
    all taken, for one strictly below the best of the call; such a point
    counts as feasible and pruned.  Every point is rounded to 12 decimals
    and clipped to the box, so that points a rounding error apart are one
    point, and only points with nu < mu are kept.

    The objective is called once for the grid, then once for each
    coordinate scan that has points not yet evaluated.  That call also
    takes the unevaluated points of the round's later scans, built around
    the current best, and, for every unevaluated point of this scan and
    of those, its branch scan: the next coordinate's scan built around
    that point at the same radius.  Whichever point wins a scan, the scan
    after it is then already evaluated, and a scan whose points were all
    evaluated so costs no call.  A point evaluated ahead is one that a
    one-scan-per-call search would evaluate later, if at all, against an
    incumbent at least as high, so its value (or -inf) decides the same:
    the best point, its value, the evaluations and the feasible count do
    not depend on what is evaluated ahead.  The pruned count does, as the
    incumbent each point is evaluated against decides whether it comes
    back pruned.  Points are counted when taken, in the order of a
    one-point-at-a-time search, not when evaluated.

    Returns (best params or None, best value, evaluations, feasible count,
    pruned count).  The best-so-far point is never abandoned, so refining
    can only improve the result.  Ties prefer smaller mu, then smaller nu,
    then larger p_mu.
    """
    lows, highs = np.array([space.bounds(name) for name in PARAM_NAMES]).T
    # the value of each point evaluated, and the points taken so far
    values: dict[tuple[float, ...], float] = {}
    taken: set[tuple[float, ...]] = set()
    best: tuple[float, ...] | None = None
    best_value = -math.inf

    def rank(value: float, point: tuple[float, ...], i: int) -> tuple[float, ...]:
        mu, nu, p_mu, p_z_tx, p_z_rx = point
        return (-value, mu, nu, -p_mu, p_z_tx, p_z_rx, i)

    def lattice(points: np.ndarray) -> list[list[tuple[float, ...]]]:
        """Each scan of ``points`` (scans, points, coordinates) on the
        lattice, as the rows with nu < mu."""
        on = _on_lattice(points, lows, highs).tolist()
        return [[tuple(row) for row in scan if row[1] < row[0]] for scan in on]

    def fetch(rows: list[tuple[float, ...]]) -> None:
        """Evaluate the points of ``rows`` not yet evaluated, in one call."""
        fresh = [row for row in dict.fromkeys(rows) if row not in values]
        if fresh:
            found = objective(np.array(fresh), best_value)
            values.update(zip(fresh, np.asarray(found, dtype=float).tolist()))

    def ahead(j: int, around: list[list[tuple[float, ...]]], radius: np.ndarray) -> None:
        """Evaluate the scans of coordinates j on of ``around`` and the
        branch scan of each of their unevaluated points."""
        fresh = {row: k for k in range(j, len(around)) for row in around[k] if row not in values}
        centres = [(row, k + 1) for row, k in fresh.items() if k + 1 < len(around)]
        branches = []
        if centres:
            rows, nexts = zip(*centres)
            scans = _scans(np.array(rows), radius, lows, highs)
            branches = lattice(scans[np.arange(len(rows)), nexts])
        fetch([*fresh, *(row for scan in branches for row in scan)])

    def consider(rows: list[tuple[float, ...]]) -> bool:
        """Take ``rows``, and say whether the best point moved."""
        nonlocal best, best_value
        taken.update(rows)
        # the points are taken in order, as if evaluated one at a time: the
        # best of them and the incumbent (first, so it wins a full tie) by
        # value, then by tie-break key; equal rates resolve toward the
        # dimmer, cheaper source
        ranked = [rank(values[row], row, i) for i, row in enumerate(rows)
                  if values[row] > -math.inf]
        if best is not None:
            ranked.append(rank(best_value, best, -1))
        if not ranked:
            return False
        value, *_, winner = min(ranked)
        if winner < 0:
            return False
        best, best_value = rows[winner], -value
        return True

    def counts() -> tuple[int, int, int]:
        """Evaluations, feasible and pruned points among those taken."""
        found = [values[row] for row in taken]
        return len(found), sum(not math.isnan(v) for v in found), found.count(-math.inf)

    axes = [np.linspace(*space.bounds(name), space.grid_points) for name in PARAM_NAMES]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    [rows] = lattice(grid[None])
    fetch(rows)
    consider(rows)
    if best is None:
        return None, -math.inf, *counts()

    cell = (highs - lows) / (space.grid_points - 1)
    for round_idx in range(DESCENT_ROUNDS):
        radius = cell / 2.0**round_idx
        moved = True
        for j in range(len(PARAM_NAMES)):
            if moved:
                around = lattice(_scans(np.array(best), radius, lows, highs))
            if any(row not in values for row in around[j]):
                ahead(j, around, radius)
            moved = consider(around[j])

    return dict(zip(PARAM_NAMES, best)), best_value, *counts()


def _on_lattice(points: np.ndarray, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
    """``points`` rounded to 12 decimals and clipped to the box [lows, highs]:
    ``np.clip(np.round(points, 12), lows, highs)``, without ``np.clip``'s
    Python wrapper."""
    return np.minimum(np.maximum(points.round(12), lows), highs)


#: The sample index of each point of a scan line, and the coordinate
#: each scan moves.
_SCAN_STEPS = np.arange(SCAN_POINTS, dtype=float)[:, None]
_DIAGONAL = np.eye(len(PARAM_NAMES), dtype=bool)[:, None, :]


def _scans(
    centre: np.ndarray, radius: np.ndarray, lows: np.ndarray, highs: np.ndarray
) -> np.ndarray:
    """The scan of each coordinate around ``centre``, ``SCAN_POINTS`` evenly
    spaced values of it within ``radius`` and the box, the others held at
    ``centre``: shape (coordinates, SCAN_POINTS, coordinates), after the
    leading axes of a batch of centres.

    The values are ``np.linspace(start, stop, SCAN_POINTS, axis=-1)``'s
    float operations, i * step + start with the last value stop (its
    branch for a step that underflows to 0 needs subnormal bounds), so
    every centre of a batch gets the scans it gets alone.
    """
    start, stop = np.maximum(lows, centre - radius), np.minimum(highs, centre + radius)
    lines = _SCAN_STEPS * ((stop - start) / (SCAN_POINTS - 1))[..., None, :] + start[..., None, :]
    lines[..., -1, :] = stop
    return np.where(_DIAGONAL, np.swapaxes(lines, -1, -2)[..., None], centre[..., None, None, :])


def optimize(
    space: SearchSpace,
    ch: ChannelParams,
    target: SecurityTarget,
    n_pulses: float,
) -> OptimizeResult:
    """Best source settings for one channel under one security target.

    Each batch is evaluated against the incumbent ``maximize`` hands it,
    so settings that cannot win are pruned, not solved exactly.  The best
    setting comes with its full report, from one ``block_report``.
    """
    lengths: dict[tuple[float, ...], int] = {}

    def objective(points: np.ndarray, incumbent: float) -> np.ndarray:
        rate, L = evaluate(points, ch, target, n_pulses, incumbent)
        # the winner has an exact rate: keep L for those points only
        exact = L > 0
        lengths.update(zip(map(tuple, points[exact].tolist()), L[exact].tolist()))
        return rate

    best, _, evaluations, n_feasible, pruned = maximize(space, objective)
    pc = report = None
    if best is not None:
        pc = PulseConfig(n_pulses=n_pulses, **best)
        report = block_report(model_links(pc, ch), pc, ch, target, lengths[tuple(best.values())])
    return OptimizeResult(pc, report, evaluations, n_feasible, pruned)
