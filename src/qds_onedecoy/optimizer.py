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
from typing import Callable, Mapping

import numpy as np

from .channel import ChannelParams, ObservedCounts, PulseConfig
from .finite_key import EpsilonBudget, _decoy
from .protocol import model_links
from .security import (
    Infeasible,
    Pruned,
    SecurityReport,
    _longest_block,
    _sifted_yield,
    _signing_time,
    block_report,
    min_signature_length,
)

__all__ = [
    "PARAM_NAMES",
    "SearchSpace",
    "EvalResult",
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
class EvalResult:
    """The best working point: its rate at the smallest feasible L, the
    settings and the full report there."""

    rate: float
    L: int
    params: PulseConfig | None = None
    report: SecurityReport | None = None


@dataclass(frozen=True)
class OptimizeResult:
    """The best working point, the settings evaluated, how many of them
    are feasible, and how many of those were pruned against an incumbent."""

    best: EvalResult | None
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
    pcs: PulseConfig | Sequence[PulseConfig],
    ch: ChannelParams,
    budget: EpsilonBudget,
    alpha: float,
    eps: float,
    target_psec: float,
    incumbent: float | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rate at the smallest feasible block length of each source setting,
    the settings solved as one batch.

    ``pcs`` is a ``PulseConfig.stack`` or a sequence of configs to stack.
    Returns three arrays over the settings: the rate of ``block_report``
    at the solved L (NaN where infeasible), that L (0 where infeasible),
    and whether the setting was pruned.  A target below the structural
    floor is a configuration error and propagates instead of reading as
    infeasible.

    Given an ``incumbent`` rate, a setting that cannot reach it is only
    shown so: it is solved with its cap at the longest block that signs
    at the incumbent's rate (``longest_block_at_rate``), and comes back
    pruned when infeasible there, with L the lower bound cap + 2 and the
    rate there, below the incumbent.  Every setting that can tie or beat
    the incumbent gets its exact L and rate.  With an incumbent of -inf
    (none found yet), a batch of more than ``SEED_POINTS`` settings first
    solves an evenly strided seed of them, and the rest against the best
    rate found.  The counts, decoy factors and sifted yields of the batch
    are built once, for both solves.
    """
    stack = pcs if isinstance(pcs, PulseConfig) else PulseConfig.stack(pcs)
    counts_by_link = model_links(stack, ch)
    # the links share one counts object, whose rows each solve takes
    [cells] = {id(c): c.cells for c in counts_by_link.values()}.values()
    decoy = _decoy(stack)
    y = np.ravel(_sifted_yield(counts_by_link, stack))
    rate = np.full(len(y), np.nan)
    length = np.zeros(len(y), dtype=np.int64)
    pruned = np.zeros(len(y), dtype=bool)

    def solve(rows: np.ndarray, incumbent: float | None) -> None:
        cap = None
        if incumbent is not None and incumbent > 0.0:
            cap = _longest_block(incumbent, y[rows], ch.clock_hz)
        taken = ObservedCounts.from_cells(cells[..., rows, :])
        solved = min_signature_length(
            dict.fromkeys(counts_by_link, taken), decoy.take(rows), budget, alpha, eps,
            target_psec, cap=cap,
        )
        # rate the feasible settings only: the others may have no yield
        found = [i for i, L in enumerate(solved) if not isinstance(L, Infeasible)]
        at, verdicts = rows[found], [solved[i] for i in found]
        pruned[at] = [isinstance(v, Pruned) for v in verdicts]
        length[at] = [v.lower if isinstance(v, Pruned) else v for v in verdicts]
        rate[at] = 1.0 / _signing_time(length[at], y[at], ch.clock_hz)

    rows = np.arange(len(y))
    if incumbent == -math.inf and len(y) > SEED_POINTS:
        stride = -(-len(y) // SEED_POINTS)
        seed = rows[::stride]
        solve(seed, incumbent)
        found = rate[seed][~np.isnan(rate[seed])]
        incumbent = max([incumbent, *found.tolist()])
        rows = rows[rows % stride != 0]
    solve(rows, incumbent)
    return rate, length, pruned


class _Rounded(dict):
    """Each float looked up, rounded to 12 decimals by ``round``, which
    runs once per distinct value."""

    def __missing__(self, value: float) -> float:
        self[value] = rounded = round(value, 12)
        return rounded


def _keys(points: np.ndarray, rounded: _Rounded) -> list[tuple[float, ...]]:
    """Each row's coordinates rounded to 12 decimals, so that points a
    rounding error apart share one key."""
    values = map(rounded.__getitem__, points.ravel().tolist())
    # one iterator zipped with itself yields consecutive runs of a row's length
    return list(zip(*[values] * points.shape[1]))


def maximize(
    space: SearchSpace,
    objective: Callable[[np.ndarray, float], Sequence[float | None] | np.ndarray],
) -> tuple[dict[str, float] | None, float, int, int, int]:
    """Grid pass plus shrinking coordinate scans over the box.

    ``objective`` maps an array of points, one row each with the
    coordinates ``PARAM_NAMES`` as columns, and the incumbent (the best
    value so far, -inf before any) to one value per row: NaN or None when
    infeasible.  For a point that cannot reach the incumbent it may return
    -inf instead of its value; such a point counts as feasible and
    pruned.  It is called once for the grid, then once for each
    coordinate scan that has points not yet evaluated, with those and the
    unevaluated points of the round's later scans, built around the
    current best: a later scan whose points were all evaluated so costs no
    call.  A point evaluated ahead is one that a one-scan-per-call search
    would evaluate later, against an incumbent at least as high, so its
    value (or -inf) decides the same.  Points are counted when taken, in
    the order of a one-point-at-a-time search, not when evaluated.
    Returns (best params or None, best value, evaluations, feasible count,
    pruned count).  The best-so-far point is never abandoned, so refining
    can only improve the result.  Ties prefer smaller mu, then smaller nu,
    then larger p_mu.
    """
    rounded = _Rounded()
    # the value of each key taken so far, and of each exact point evaluated
    # but not yet taken
    taken: dict[tuple[float, ...], float] = {}
    ahead: dict[tuple[float, ...], float] = {}
    evaluations = n_feasible = n_pruned = 0
    best: np.ndarray | None = None
    best_value = -math.inf

    def untaken(
        points: np.ndarray, skip: Mapping
    ) -> tuple[np.ndarray, list[tuple[float, ...]], dict[tuple[float, ...], int]]:
        """The rows of ``points`` with nu < mu, their keys, and the index of
        the first row of each key neither taken nor in ``skip``."""
        points = points[points[:, 1] < points[:, 0]]
        keys = _keys(points, rounded)
        first: dict[tuple[float, ...], int] = {}
        for i, key in enumerate(keys):
            if key not in taken and key not in skip:
                first.setdefault(key, i)
        return points, keys, first

    def consider(points: np.ndarray, later: Callable[[], list[np.ndarray]]) -> bool:
        """Take ``points``, and say whether the best point moved."""
        nonlocal evaluations, n_feasible, n_pruned, best, best_value
        points, keys, first = untaken(points, {})
        exact = list(map(tuple, points.tolist()))
        fresh = [i for i in first.values() if exact[i] not in ahead]
        if fresh:
            spare, _, extra = untaken(np.concatenate([points[:0], *later()]), first)
            spare_exact = list(map(tuple, spare.tolist()))
            extra = [i for i in extra.values() if spare_exact[i] not in ahead]
            values = objective(np.concatenate([points[fresh], spare[extra]]), best_value)
            ahead.update(zip(
                [exact[i] for i in fresh] + [spare_exact[i] for i in extra],
                np.asarray(values, dtype=float).tolist(),
            ))
        # each key is taken at its first point, and counted there
        for key, i in first.items():
            value = taken[key] = ahead.pop(exact[i])
            evaluations += 1
            n_feasible += not math.isnan(value)
            n_pruned += value == -math.inf
        # the points are taken in order, as if evaluated one at a time: the
        # best of them and the incumbent (first, so it wins a full tie) by
        # value, then by tie-break key; equal rates resolve toward the
        # dimmer, cheaper source
        ranked = [
            (-value, mu, nu, -p_mu, p_z_tx, p_z_rx, i)
            for i, (value, (mu, nu, p_mu, p_z_tx, p_z_rx)) in enumerate(zip(
                map(taken.__getitem__, keys), exact))
            if value > -math.inf
        ]
        if best is not None:
            mu, nu, p_mu, p_z_tx, p_z_rx = best.tolist()
            ranked.append((-best_value, mu, nu, -p_mu, p_z_tx, p_z_rx, -1))
        if not ranked:
            return False
        value, *_, winner = min(ranked)
        if winner < 0:
            return False
        best, best_value = points[winner], -value
        return True

    axes = [np.linspace(*space.bounds(name), space.grid_points) for name in PARAM_NAMES]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    consider(grid, lambda: [])
    if best is None:
        return None, -math.inf, evaluations, n_feasible, n_pruned

    lows, highs = np.array([space.bounds(name) for name in PARAM_NAMES]).T
    cell = (highs - lows) / (space.grid_points - 1)
    coords = np.arange(len(PARAM_NAMES))
    steps = np.arange(SCAN_POINTS, dtype=float)

    def scans(round_idx: int) -> np.ndarray:
        """The scan of each coordinate in round ``round_idx`` around the current
        best, shape (coordinates, SCAN_POINTS, coordinates)."""
        radius = cell / 2.0**round_idx
        start, stop = np.maximum(lows, best - radius), np.minimum(highs, best + radius)
        # each coordinate's np.linspace(start, stop, SCAN_POINTS), computed as it does
        delta = (stop - start)[:, None]
        step = delta / (SCAN_POINTS - 1)
        line = np.where(step == 0.0, steps / (SCAN_POINTS - 1) * delta, steps * step)
        line += start[:, None]
        line[:, -1] = stop
        points = np.repeat(best[None, :], len(PARAM_NAMES) * SCAN_POINTS, axis=0)
        points = points.reshape(len(PARAM_NAMES), SCAN_POINTS, -1)
        points[coords, :, coords] = line
        return points

    for round_idx in range(DESCENT_ROUNDS):
        moved = True
        for j in range(len(PARAM_NAMES)):
            if moved:
                around = scans(round_idx)
            moved = consider(around[j], lambda: list(around[j + 1:]))

    return dict(zip(PARAM_NAMES, best.tolist())), best_value, evaluations, n_feasible, n_pruned


def optimize(
    space: SearchSpace,
    ch: ChannelParams,
    budget: EpsilonBudget,
    alpha: float,
    eps: float,
    target_psec: float,
    n_pulses: float,
) -> OptimizeResult:
    """Best source settings for one channel under one security target.

    Each batch is evaluated against the incumbent ``maximize`` hands it,
    so settings that cannot win are pruned, not solved exactly.  The best
    setting comes with its full report, from one ``block_report``.
    """
    solved: list[tuple[np.ndarray, ...]] = []

    def objective(points: np.ndarray, incumbent: float) -> np.ndarray:
        stack = PulseConfig.stack(points, n_pulses=n_pulses)
        rate, L, pruned = evaluate(stack, ch, budget, alpha, eps, target_psec, incumbent)
        solved.append((points, rate, L))
        return np.where(pruned, -math.inf, rate)

    best, rate, evaluations, n_feasible, pruned = maximize(space, objective)
    if best is None:
        return OptimizeResult(best=None, evaluations=evaluations, n_feasible=0, pruned=0)
    pc = PulseConfig(n_pulses=n_pulses, **best)
    # L is that of the point evaluated for the best one's key, at its rate
    points, rates, lengths = map(np.concatenate, zip(*solved))
    tied = np.flatnonzero(rates == rate)
    rounded = _Rounded()
    [key] = _keys(np.array([list(best.values())]), rounded)
    L = next(int(lengths[i]) for i, k in zip(tied, _keys(points[tied], rounded)) if k == key)
    report = block_report(model_links(pc, ch), pc, ch, budget, alpha, eps, L)
    return OptimizeResult(
        best=EvalResult(rate=rate, L=L, params=pc, report=report),
        evaluations=evaluations, n_feasible=n_feasible, pruned=pruned,
    )
