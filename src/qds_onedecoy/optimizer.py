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
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .channel import ChannelParams, PulseConfig, expected_statistics
from .finite_key import EpsilonBudget
from .security import (
    Infeasible,
    InfeasibleTarget,
    SecurityReport,
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
    """One feasible working point and everything certified for it."""

    params: PulseConfig
    rate: float
    L: int
    report: SecurityReport


@dataclass(frozen=True)
class OptimizeResult:
    best: EvalResult | None
    evaluations: int
    n_feasible: int


def evaluate(
    pc: PulseConfig,
    ch: ChannelParams,
    budget: EpsilonBudget,
    alpha: float,
    eps: float,
    target_psec: float,
) -> EvalResult | None:
    """Rate at the smallest feasible block length, or None when infeasible.

    Both recipient links are modelled identically, so one set of expected
    statistics serves both.  A target below the structural floor is a
    configuration error and propagates instead of reading as infeasible.
    """
    counts = expected_statistics(pc, ch)
    counts_by_link = {"bob_alice": counts, "charlie_alice": counts}
    try:
        report = min_signature_length(
            counts_by_link, pc, ch, budget, alpha, eps, target_psec
        )
    except InfeasibleTarget:
        raise
    except Infeasible:
        return None
    return EvalResult(params=pc, rate=report.rate_bits_per_s, L=report.L, report=report)


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
    objective: Callable[[dict[str, float]], float | None],
    descent_rounds: int = 4,
    scan_points: int = 5,
) -> tuple[dict[str, float] | None, float, int, int]:
    """Grid pass plus shrinking coordinate scans over the box.

    ``objective`` maps a parameter dict to a value or None (infeasible).
    Returns (best params or None, best value, evaluations, feasible count).
    The best-so-far point is never abandoned, so refining can only
    improve the result.  Ties prefer smaller mu, then smaller nu, then
    larger p_mu.
    """
    cache: dict[tuple[float, ...], float | None] = {}
    evaluations = 0
    n_feasible = 0

    def call(params: dict[str, float]) -> float | None:
        nonlocal evaluations, n_feasible
        if params["nu"] >= params["mu"]:
            return None
        key = _param_key(params)
        if key in cache:
            return cache[key]
        value = objective(dict(params))
        cache[key] = value
        evaluations += 1
        if value is not None:
            n_feasible += 1
        return value

    best_params: dict[str, float] | None = None
    best_value = -math.inf
    best_key: tuple[float, ...] | None = None

    def consider(params: dict[str, float]) -> None:
        nonlocal best_params, best_value, best_key
        value = call(params)
        if value is None:
            return
        key = _tiebreak_key(params)
        if value > best_value or (value == best_value and (best_key is None or key < best_key)):
            best_params = dict(params)
            best_value = value
            best_key = key

    axes = {
        name: np.linspace(*space.bounds(name), space.grid_points)
        for name in PARAM_NAMES
    }
    for combo in itertools.product(*(axes[n] for n in PARAM_NAMES)):
        consider(dict(zip(PARAM_NAMES, (float(v) for v in combo))))

    if best_params is None:
        return None, -math.inf, evaluations, n_feasible

    for round_idx in range(descent_rounds):
        for name in PARAM_NAMES:
            lo, hi = space.bounds(name)
            cell = (hi - lo) / (space.grid_points - 1)
            radius = cell / 2.0**round_idx
            center = best_params[name]
            for value in np.linspace(
                max(lo, center - radius), min(hi, center + radius), scan_points
            ):
                candidate = dict(best_params)
                candidate[name] = float(value)
                consider(candidate)

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
    """Best source settings for one channel under one security target."""
    results: dict[tuple[float, ...], EvalResult] = {}

    def objective(params: dict[str, float]) -> float | None:
        pc = PulseConfig(n_pulses=n_pulses, **params)
        res = evaluate(pc, ch, budget, alpha, eps, target_psec)
        if res is None:
            return None
        results[_param_key(params)] = res
        return res.rate

    best_params, _, evaluations, n_feasible = maximize(space, objective)
    if best_params is None:
        return OptimizeResult(best=None, evaluations=evaluations, n_feasible=0)
    best = results[_param_key(best_params)]
    return OptimizeResult(best=best, evaluations=evaluations, n_feasible=n_feasible)
