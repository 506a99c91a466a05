"""Search for source settings that maximise the signature rate.

The objective (rate at the smallest feasible block length) is cheap but
not smooth: the feasible region has a boundary where the estimates
saturate, and the block-length solver returns integers.  A coarse grid
pass followed by shrinking coordinate scans is robust to both, needs no
gradients, and is deterministic, including its tie-breaking.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .channel import ChannelParams, ObservedCounts, PulseConfig
from .finite_key import EpsilonBudget
from .protocol import model_links
from .security import (
    Infeasible,
    Pruned,
    SecurityReport,
    block_report,
    longest_block_at_rate,
    min_signature_length,
    signature_time_and_rate,
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
        if self.grid_points < 2:
            raise ValueError(f"grid_points must be at least 2, got {self.grid_points}")

    def bounds(self, name: str) -> tuple[float, float]:
        return getattr(self, name)


@dataclass(frozen=True)
class EvalResult:
    """One feasible working point: its rate at the smallest feasible L.

    A ``pruned`` point was shown unable to reach the incumbent it was
    solved against: its L is then only a lower bound on the smallest
    feasible length, and its rate (the rate there) an upper bound, below
    the incumbent.  ``evaluate`` fills in neither ``params`` nor
    ``report``; ``optimize`` adds both for the best working point only.
    """

    rate: float
    L: int
    pruned: bool = False
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


#: Points of a large batch ``evaluate`` solves first, evenly strided, to
#: find an incumbent for the rest.  On the default box at 12-287 km, 16
#: leave 1 or 2 of the other 200 grid-3 points unpruned (the 16 of highest
#: yield leave about 10); 8 to 32 cost about the same.
SEED_POINTS = 16
#: Coordinate-scan rounds after the grid pass, and the points of each scan.
DESCENT_ROUNDS = 4
SCAN_POINTS = 5


def _take_links(
    counts_by_link: Mapping[str, ObservedCounts], rows: np.ndarray
) -> dict[str, ObservedCounts]:
    """The rows ``rows`` of every link's stacked counts; shared counts stay shared."""
    taken = {
        id(c): ObservedCounts.from_cells(c.cells[..., rows, :])
        for c in counts_by_link.values()
    }
    return {link: taken[id(c)] for link, c in counts_by_link.items()}


def evaluate(
    pcs: PulseConfig | Sequence[PulseConfig],
    ch: ChannelParams,
    budget: EpsilonBudget,
    alpha: float,
    eps: float,
    target_psec: float,
    incumbent: float | None = None,
) -> list[EvalResult | None]:
    """Rate at the smallest feasible block length, or None when infeasible,
    for each source setting; the settings are solved as one batch.

    ``pcs`` is a ``PulseConfig.stack`` or a sequence of configs to stack.
    The rate is that of ``block_report`` at the solved L.  A target below
    the structural floor is a configuration error and propagates instead
    of reading as infeasible.

    Given an ``incumbent`` rate, a setting that cannot reach it is only
    shown so: it is solved with its cap at the longest block that signs
    at the incumbent's rate (``longest_block_at_rate``), and comes back
    ``pruned`` when infeasible there.  Every setting that can tie or beat
    the incumbent gets its exact L and rate.  A batch of more than
    ``SEED_POINTS`` settings first solves an evenly strided seed of them,
    and the rest against the best rate found, if that is higher.  An
    incumbent of -inf thus still prunes a large batch.
    """
    stack = pcs if isinstance(pcs, PulseConfig) else PulseConfig.stack(pcs)
    counts_by_link = model_links(stack, ch)
    n = len(stack.mu)
    results: list[EvalResult | None] = [None] * n

    def solve(rows: np.ndarray, incumbent: float | None) -> None:
        counts, pc = _take_links(counts_by_link, rows), stack.take(rows)
        cap = None
        if incumbent is not None and incumbent > 0.0:
            cap = longest_block_at_rate(incumbent, counts, pc, ch)
        solved = min_signature_length(
            counts, pc, budget, alpha, eps, target_psec, cap=cap
        )
        found = [i for i, L in enumerate(solved) if not isinstance(L, Infeasible)]
        if not found:
            return
        # rate the feasible settings only: the others may have no yield
        lengths = [L.lower if isinstance(L, Pruned) else L for L in (solved[i] for i in found)]
        _, rates = signature_time_and_rate(
            np.array(lengths)[:, None], _take_links(counts, np.array(found)),
            pc.take(found), ch,
        )
        for i, L, rate in zip(found, lengths, rates[:, 0]):
            results[rows[i]] = EvalResult(
                rate=float(rate), L=L, pruned=isinstance(solved[i], Pruned)
            )

    rows = np.arange(n)
    if incumbent is not None and n > SEED_POINTS:
        seed = rows[:: -(-n // SEED_POINTS)]
        solve(seed, incumbent)
        found = [results[i] for i in seed]
        incumbent = max([incumbent, *(r.rate for r in found if r is not None and not r.pruned)])
        rows = np.setdiff1d(rows, seed)
    solve(rows, incumbent)
    return results


def _param_key(params: Mapping[str, float]) -> tuple[float, ...]:
    return tuple(round(params[n], 12) for n in PARAM_NAMES)


def _tiebreak_key(params: Mapping[str, float]) -> tuple[float, ...]:
    # equal rates resolve toward the dimmer, cheaper source
    return (
        params["mu"],
        params["nu"],
        -params["p_mu"],
        params["p_z_tx"],
        params["p_z_rx"],
    )


def maximize(
    space: SearchSpace,
    objective: Callable[[list[dict[str, float]], float], Sequence[float | None]],
) -> tuple[dict[str, float] | None, float, int, int]:
    """Grid pass plus shrinking coordinate scans over the box.

    ``objective`` maps a list of parameter dicts and the incumbent (the
    best value so far, -inf before any) to one value or None (infeasible)
    per dict.  For a point whose value would fall below the incumbent it
    may return any value below the incumbent instead, which can then
    never become best.  It is called once for the grid and once per
    coordinate scan, with the points of that pass it has not seen yet:
    a scan's points differ from the best point only in the scanned
    coordinate, so none depends on another's value.  Returns (best params
    or None, best value, evaluations, feasible count).  The best-so-far
    point is never abandoned, so refining can only improve the result.
    Ties prefer smaller mu, then smaller nu, then larger p_mu.
    """
    cache: dict[tuple[float, ...], float | None] = {}
    evaluations = 0
    n_feasible = 0
    best_params: dict[str, float] | None = None
    best_value = -math.inf
    best_key: tuple[float, ...] | None = None

    def consider(candidates: list[dict[str, float]]) -> None:
        nonlocal evaluations, n_feasible, best_params, best_value, best_key
        fresh: dict[tuple[float, ...], dict[str, float]] = {}
        for params in candidates:
            key = _param_key(params)
            if params["nu"] < params["mu"] and key not in cache:
                fresh.setdefault(key, dict(params))
        if fresh:
            values = objective(list(fresh.values()), best_value)
            for key, value in zip(fresh, values):
                cache[key] = value
                evaluations += 1
                if value is not None:
                    n_feasible += 1
        # the points are taken in order, as if evaluated one at a time
        for params in candidates:
            if params["nu"] >= params["mu"]:
                continue
            value = cache[_param_key(params)]
            if value is None:
                continue
            key = _tiebreak_key(params)
            if value > best_value or (value == best_value and (best_key is None or key < best_key)):
                best_params = dict(params)
                best_value = value
                best_key = key

    axes = {
        name: np.linspace(*space.bounds(name), space.grid_points)
        for name in PARAM_NAMES
    }
    consider([
        dict(zip(PARAM_NAMES, (float(v) for v in combo)))
        for combo in itertools.product(*(axes[n] for n in PARAM_NAMES))
    ])

    if best_params is None:
        return None, -math.inf, evaluations, n_feasible

    for round_idx in range(DESCENT_ROUNDS):
        for name in PARAM_NAMES:
            lo, hi = space.bounds(name)
            cell = (hi - lo) / (space.grid_points - 1)
            radius = cell / 2.0**round_idx
            center = best_params[name]
            consider([
                {**best_params, name: float(value)}
                for value in np.linspace(
                    max(lo, center - radius), min(hi, center + radius), SCAN_POINTS
                )
            ])

    return best_params, best_value, evaluations, n_feasible


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
    lengths: dict[tuple[float, ...], int] = {}
    pruned = 0

    def objective(batch: list[dict[str, float]], incumbent: float) -> list[float | None]:
        nonlocal pruned
        stack = PulseConfig.stack(batch, n_pulses=n_pulses)
        values: list[float | None] = []
        for params, res in zip(
            batch, evaluate(stack, ch, budget, alpha, eps, target_psec, incumbent)
        ):
            if res is not None:
                pruned += res.pruned
                lengths[_param_key(params)] = res.L
            values.append(None if res is None else res.rate)
        return values

    best_params, rate, evaluations, n_feasible = maximize(space, objective)
    if best_params is None:
        return OptimizeResult(best=None, evaluations=evaluations, n_feasible=0, pruned=0)
    pc = PulseConfig(n_pulses=n_pulses, **best_params)
    L = lengths[_param_key(best_params)]
    report = block_report(model_links(pc, ch), pc, ch, budget, alpha, eps, L)
    return OptimizeResult(
        best=EvalResult(rate=rate, L=L, params=pc, report=report),
        evaluations=evaluations, n_feasible=n_feasible, pruned=pruned,
    )
