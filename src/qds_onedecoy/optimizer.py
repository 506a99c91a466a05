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

from .channel import ChannelParams, PulseConfig, model_links
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
    below the structural floor propagates instead of reading as infeasible.

    A positive ``incumbent`` rate (0, the default, prunes nothing) may
    prune a setting that cannot reach it; one that can tie or beat it gets
    its exact rate and L.  An incumbent of -inf says that the whole batch
    is taken at once: a setting that cannot tie the best of the batch may
    come back pruned.  README, "How the block length is solved", gives the
    design.
    """
    rate = np.full(len(points), np.nan)
    length = np.zeros(len(points), dtype=np.int64)

    def solve(rows: np.ndarray, incumbent: float) -> None:
        # the model is elementwise, so each setting's counts are those it
        # gets modelled alone
        stack = PulseConfig.stack(points[rows], n_pulses=n_pulses)
        links = model_links(stack, ch)
        yields = _sifted_yield(links, stack).ravel()
        cap = race = None
        if incumbent == -math.inf:
            race = yields, ch.clock_hz
        elif incumbent > 0.0:
            cap = longest_block_at_rate(incumbent, yields, ch.clock_hz)
        L, code, _ = min_signature_length(links, stack, target, cap=cap, race=race)
        # rate the solved settings only, as the others may have no yield
        exact = code == Verdicts.SOLVED
        rate[rows[code == Verdicts.PRUNED]] = -math.inf
        at, L = rows[exact], L[exact]
        rate[at] = 1.0 / _signing_time(L, yields[exact], ch.clock_hz)
        length[at] = L

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
    """Grid pass plus ``DESCENT_ROUNDS`` rounds of shrinking coordinate
    scans over the box.

    ``objective`` maps an array of points, one row each with the
    coordinates ``PARAM_NAMES`` as columns, and the incumbent (the best
    value so far, -inf before any) to one value per row, NaN or None when
    infeasible.  It may return -inf for a point that cannot reach the
    incumbent, and in the grid call, whose points are all taken, for one
    strictly below the best of the call; such a point counts as feasible
    and pruned.  Every point is rounded to 12 decimals and clipped to the
    box, and only points with nu < mu are kept.

    Returns (best params or None, best value, evaluations, feasible count,
    pruned count).  Points may be evaluated ahead of their scan, but are
    counted when taken, so the best point, its value, the evaluations and
    the feasible count are those of a one-point-at-a-time search; the
    pruned count depends on the incumbent each point met.  The best point
    is never abandoned, and ties prefer smaller mu, then smaller nu, then
    larger p_mu.  README, "How the block length is solved", gives the design.
    """
    lows, highs = np.array([space.bounds(name) for name in PARAM_NAMES]).T
    # the value of each evaluated point and the points taken, by their
    # coordinate bytes (``_POINT``), and the best point, None before any
    values: dict[bytes, float] = {}
    taken: dict[bytes, None] = {}
    best, best_value = None, -math.inf

    def lattice(points: np.ndarray) -> list[list[bytes]]:
        """The keys of each scan of ``points`` (scans, points, coordinates)
        on the lattice, those with nu < mu only."""
        on = _on_lattice(points, lows, highs)
        keys, keep = on.view(_POINT)[..., 0].tolist(), (on[..., 1] < on[..., 0]).tolist()
        return [[key for key, kept in zip(scan, mask) if kept] for scan, mask in zip(keys, keep)]

    def fetch(keys: list[bytes]) -> None:
        """Evaluate the points of ``keys`` not yet evaluated, in one call."""
        fresh = [key for key in dict.fromkeys(keys) if key not in values]
        if fresh:
            points = np.frombuffer(b"".join(fresh)).reshape(-1, len(PARAM_NAMES)).copy()
            found = np.asarray(objective(points, best_value), dtype=float)
            values.update(zip(fresh, found.tolist()))

    def ahead(j: int, around: list[list[bytes]], radius: np.ndarray) -> None:
        """Evaluate the scans of coordinates j on in ``around`` and the
        branch scan of each of their unevaluated points."""
        fresh = [(key, k) for k in range(j, len(around)) for key in around[k] if key not in values]
        centres = [(key, k + 1) for key, k in fresh if k + 1 < len(around)]
        branches = []
        if centres:
            keys, nexts = zip(*centres)
            centre = np.frombuffer(b"".join(keys)).reshape(-1, len(PARAM_NAMES))
            branches = lattice(_scans(centre, radius, lows, highs)[np.arange(len(keys)), nexts])
        fetch([key for key, _ in fresh] + [key for scan in branches for key in scan])

    def consider(keys: list[bytes]) -> bool:
        """Take the points of ``keys``, and say whether the best point moved."""
        nonlocal best, best_value
        taken.update(dict.fromkeys(keys))
        # the points are taken in order, as if evaluated one at a time: the
        # best of them and the incumbent (first, so it wins a full tie) by
        # value, then by tie-break key; equal rates resolve toward the
        # dimmer, cheaper source
        top = max((values[key] for key in keys if not math.isnan(values[key])), default=-math.inf)
        if top == -math.inf or top < best_value:
            return False
        tied = [best] if top == best_value else []
        tied += [key for key in keys if values[key] == top]
        winner = min(tied, key=lambda key: (np.frombuffer(key) * _TIE_SIGNS).tolist())
        if winner == best:
            return False
        best, best_value = winner, top
        return True

    def counts() -> tuple[int, int, int]:
        """Evaluations, feasible and pruned points among those taken."""
        found = [values[key] for key in taken]
        return len(found), sum(not math.isnan(v) for v in found), found.count(-math.inf)

    axes = [np.linspace(*space.bounds(name), space.grid_points) for name in PARAM_NAMES]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    [keys] = lattice(grid[None])
    fetch(keys)
    consider(keys)
    if best is None:
        return None, -math.inf, *counts()

    cell = (highs - lows) / (space.grid_points - 1)
    for round_idx in range(DESCENT_ROUNDS):
        radius = cell / 2.0**round_idx
        moved = True
        for j in range(len(PARAM_NAMES)):
            if moved:
                around = lattice(_scans(np.frombuffer(best), radius, lows, highs))
            if any(key not in values for key in around[j]):
                ahead(j, around, radius)
            moved = consider(around[j])

    return dict(zip(PARAM_NAMES, np.frombuffer(best).tolist())), best_value, *counts()


#: The tie-break key of a point is its coordinates times these, compared
#: in order: smaller mu, then smaller nu, then larger p_mu.
_TIE_SIGNS = np.array([1.0, 1.0, -1.0, 1.0, 1.0])
#: A point's coordinates as one value, their bytes, which ``maximize`` keys
#: its points by: for the positive coordinates of a box, equal bytes are
#: equal floats.
_POINT = np.dtype((np.void, 8 * len(PARAM_NAMES)))


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
    return np.where(_DIAGONAL, lines.swapaxes(-1, -2)[..., None], centre[..., None, None, :])


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
    # the L of every point evaluated, by its ``_POINT`` bytes; the winner,
    # which has an exact rate and so its L, is evaluated once
    lengths: dict[bytes, int] = {}

    def objective(points: np.ndarray, incumbent: float) -> np.ndarray:
        rate, L = evaluate(points, ch, target, n_pulses, incumbent)
        lengths.update(zip(points.view(_POINT)[:, 0].tolist(), L.tolist()))
        return rate

    best, _, evaluations, n_feasible, pruned = maximize(space, objective)
    pc = report = None
    if best is not None:
        pc = PulseConfig(n_pulses=n_pulses, **best)
        L = lengths[np.array([best[name] for name in PARAM_NAMES]).tobytes()]
        report = block_report(model_links(pc, ch), pc, ch, target, L)
    return OptimizeResult(pc, report, evaluations, n_feasible, pruned)
