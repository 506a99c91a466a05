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
from dataclasses import dataclass, replace
from typing import Callable, Mapping

import numpy as np

from .channel import ChannelParams, ObservedCounts, PulseConfig, expected_statistics
from .finite_key import EpsilonBudget
from .security import (
    Infeasible,
    SecurityReport,
    block_report,
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

    ``report`` is the full security report at L; ``optimize`` builds it
    for the best working point only.
    """

    params: PulseConfig
    rate: float
    L: int
    report: SecurityReport | None = None


@dataclass(frozen=True)
class OptimizeResult:
    best: EvalResult | None
    evaluations: int
    n_feasible: int


def _model_links(pc: PulseConfig, ch: ChannelParams) -> dict[str, ObservedCounts]:
    # both recipient links are modelled identically: one counts object serves both
    counts = expected_statistics(pc, ch)
    return {"bob_alice": counts, "charlie_alice": counts}


def evaluate(
    pcs: PulseConfig | Sequence[PulseConfig],
    ch: ChannelParams,
    budget: EpsilonBudget,
    alpha: float,
    eps: float,
    target_psec: float,
) -> EvalResult | None | list[EvalResult | None]:
    """Rate at the smallest feasible block length, or None when infeasible.

    Takes one source setting, or a sequence of them solved as one batch
    (then returns a list).  The rate is that of ``block_report`` at the
    solved L.  A target below the structural floor is a configuration
    error and propagates instead of reading as infeasible.
    """
    batch = [pcs] if isinstance(pcs, PulseConfig) else list(pcs)
    settings = [(_model_links(pc, ch), pc) for pc in batch]
    solved = min_signature_length(settings, budget, alpha, eps, target_psec)
    results: list[EvalResult | None] = []
    for (counts_by_link, pc), L in zip(settings, solved):
        if isinstance(L, Infeasible):
            results.append(None)
        else:
            _, rate = signature_time_and_rate(L, counts_by_link, pc, ch)
            results.append(EvalResult(params=pc, rate=rate, L=L))
    return results[0] if isinstance(pcs, PulseConfig) else results


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
    objective: Callable[[list[dict[str, float]]], Sequence[float | None]],
    descent_rounds: int = 4,
    scan_points: int = 5,
) -> tuple[dict[str, float] | None, float, int, int]:
    """Grid pass plus shrinking coordinate scans over the box.

    ``objective`` maps a list of parameter dicts to one value or None
    (infeasible) per dict.  It is called once for the grid and once per
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
            values = objective(list(fresh.values()))
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

    for round_idx in range(descent_rounds):
        for name in PARAM_NAMES:
            lo, hi = space.bounds(name)
            cell = (hi - lo) / (space.grid_points - 1)
            radius = cell / 2.0**round_idx
            center = best_params[name]
            consider([
                {**best_params, name: float(value)}
                for value in np.linspace(
                    max(lo, center - radius), min(hi, center + radius), scan_points
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

    The best setting comes with its full report, from one ``block_report``.
    """
    results: dict[tuple[float, ...], EvalResult] = {}

    def objective(batch: list[dict[str, float]]) -> list[float | None]:
        pcs = [PulseConfig(n_pulses=n_pulses, **params) for params in batch]
        values: list[float | None] = []
        for params, res in zip(batch, evaluate(pcs, ch, budget, alpha, eps, target_psec)):
            if res is not None:
                results[_param_key(params)] = res
            values.append(None if res is None else res.rate)
        return values

    best_params, _, evaluations, n_feasible = maximize(space, objective)
    if best_params is None:
        return OptimizeResult(best=None, evaluations=evaluations, n_feasible=0)
    best = results[_param_key(best_params)]
    report = block_report(
        _model_links(best.params, ch), best.params, ch, budget, alpha, eps, best.L
    )
    return OptimizeResult(
        best=replace(best, report=report), evaluations=evaluations, n_feasible=n_feasible
    )
