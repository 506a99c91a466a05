"""Finite-size decoy-state estimation for a two-intensity source.

Given the eight sifted observables of one link, these estimators bound
the contributions of vacuum and single-photon pulses with Hoeffding-type
concentration inequalities, then transfer the single-photon error rate
observed in the X basis onto the Z-basis key.  Every concentration bound
consumed here is drawn from an explicit budget of named applications so
the total failure probability stays accountable.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Mapping

from .channel import ObservedCounts, PulseConfig
from .stat_math import gamma_correction, hoeffding_delta, serfling_error_upper

__all__ = [
    "BOUND_APPLICATIONS",
    "EpsilonBudget",
    "FiniteKeyEstimates",
    "EstimationError",
    "tau_n",
    "scaled_count_bounds",
    "vacuum_upper",
    "single_photon_lower",
    "single_photon_error_upper",
    "phase_error_upper",
    "observed_error_upper",
    "estimate_counts",
    "block_scale",
]

#: The complete list of concentration-bound applications the estimation
#: chain is allowed to make, each charged ``eps_pe``: count bounds per
#: basis and intensity, one vacuum bound per basis, the two X-basis error
#: bounds, the X-to-Z transfer penalty and the test-sample bound.
BOUND_APPLICATIONS = (
    "n_z_mu",
    "n_z_nu",
    "vacuum_z",
    "n_x_mu",
    "n_x_nu",
    "vacuum_x",
    "m_x_mu",
    "m_x_nu",
    "basis_transfer",
    "test_sample",
)


class EstimationError(Exception):
    """Raised when an estimator is asked for a bound it cannot produce."""


@dataclass(frozen=True)
class EpsilonBudget:
    """Failure-probability budget of the estimation chain.

    ``eps_pe`` is charged once per entry of ``BOUND_APPLICATIONS``; the
    overall parameter-estimation failure probability is ``total``.
    """

    eps_pe: float

    def __post_init__(self) -> None:
        if not 0.0 < self.eps_pe <= 1.0:
            raise ValueError(f"eps_pe must lie in (0, 1], got {self.eps_pe}")

    @property
    def total(self) -> float:
        return len(BOUND_APPLICATIONS) * self.eps_pe


@dataclass(frozen=True)
class FiniteKeyEstimates:
    """Bounds certified for one block (or the whole pool when L = pool size).

    ``saturated`` marks blocks whose X-basis sample was too thin to
    certify a phase error rate below 1/2.
    """

    s_z1_lower: float
    phi_z1_upper: float
    s_z0_upper: float
    s_x1_lower: float
    v_x1_upper: float
    saturated: bool = False


def tau_n(n: int, pc: PulseConfig) -> float:
    """Probability that a pulse of the two-intensity mix carries n photons."""
    if n < 0:
        raise ValueError(f"photon number must be non-negative, got {n}")
    fact = math.factorial(n)
    return (
        pc.p_mu * math.exp(-pc.mu) * pc.mu**n / fact
        + (1.0 - pc.p_mu) * math.exp(-pc.nu) * pc.nu**n / fact
    )


def scaled_count_bounds(
    count: float, basis_total: float, intensity: str, pc: PulseConfig, eps: float
) -> tuple[float, float]:
    """Bounds on the intensity-normalised count (e^lam / p_lam)(count -/+ delta).

    The Hoeffding deviation is taken on the basis total, of which the
    per-intensity count is one summand.  The lower bound is floored at
    zero since it estimates a number of events.
    """
    lam, p_lam = pc.intensity(intensity)
    if count > basis_total:
        raise ValueError(
            f"cell count {count} cannot exceed its basis total {basis_total}"
        )
    delta = hoeffding_delta(basis_total, eps)
    scale = math.exp(lam) / p_lam
    lower = max(0.0, scale * (count - delta))
    upper = scale * (count + delta)
    return lower, upper


def vacuum_upper(m_basis_total: float, eps: float) -> float:
    """Upper bound on vacuum-pulse detections in a basis.

    Vacuum detections are background clicks, so at most twice the error
    count of that basis (background clicks are uncorrelated with the bit
    value): 2 (m + delta(m, eps)).
    """
    if m_basis_total < 0:
        raise ValueError(f"error count must be non-negative, got {m_basis_total}")
    return 2.0 * (m_basis_total + hoeffding_delta(m_basis_total, eps))


def single_photon_lower(
    counts: ObservedCounts, basis: str, pc: PulseConfig, budget: EpsilonBudget
) -> float:
    """Lower bound on single-photon detections in ``basis``.

    Two-intensity decoy bound: the decoy count pins the low-photon-number
    yields, the signal count and the vacuum bound remove the multiphoton
    and background contributions.  Clamped to [0, basis total]; a
    non-positive bracket means the statistics cannot certify any
    single-photon events, in which case 0 is returned with a warning.
    """
    if pc.nu <= 0.0:
        raise EstimationError("single-photon bound requires a non-vacuum decoy intensity")
    eps = budget.eps_pe
    n_tot = counts.n_total(basis)
    if n_tot == 0:
        return 0.0
    nu_lower, _ = scaled_count_bounds(counts.n(basis, "nu"), n_tot, "nu", pc, eps)
    _, mu_upper = scaled_count_bounds(counts.n(basis, "mu"), n_tot, "mu", pc, eps)
    s0_upper = vacuum_upper(counts.m_total(basis), eps)
    mu, nu = pc.mu, pc.nu
    t0 = tau_n(0, pc)
    t1 = tau_n(1, pc)
    bracket = (
        nu_lower
        - (nu**2 / mu**2) * mu_upper
        - ((mu**2 - nu**2) / mu**2) * s0_upper / t0
    )
    s1 = t1 * mu / (nu * (mu - nu)) * bracket
    if s1 <= 0.0:
        warnings.warn(
            f"single-photon bound in basis {basis} is vacuous (bracket <= 0); "
            "returning 0",
            RuntimeWarning,
            stacklevel=2,
        )
        return 0.0
    return min(s1, n_tot)


def single_photon_error_upper(
    counts: ObservedCounts, pc: PulseConfig, budget: EpsilonBudget
) -> float:
    """Upper bound on errors among single-photon detections in the X basis.

    v_1 <= tau_1 / (mu - nu) * (m_mu_upper - m_nu_lower), with the
    intensity-normalised error bounds sharing one deviation on the total
    X error count.  Clamped below by 0 and above by the normalised total
    error count.
    """
    eps = budget.eps_pe
    m_tot = counts.m_total("X")
    mu_lam, mu_p = pc.intensity("mu")
    nu_lam, nu_p = pc.intensity("nu")
    delta = hoeffding_delta(m_tot, eps)
    m_mu_upper = math.exp(mu_lam) / mu_p * (counts.m("X", "mu") + delta)
    m_nu_lower = max(0.0, math.exp(nu_lam) / nu_p * (counts.m("X", "nu") - delta))
    v1 = tau_n(1, pc) / (pc.mu - pc.nu) * (m_mu_upper - m_nu_lower)
    ceiling = (
        math.exp(mu_lam) / mu_p * counts.m("X", "mu")
        + math.exp(nu_lam) / nu_p * counts.m("X", "nu")
    )
    return min(max(0.0, v1), ceiling)


def phase_error_upper(s_x1: float, v_x1: float, s_z1: float, eps: float) -> float:
    """Upper bound on the Z-basis single-photon phase error rate.

    The X-basis single-photon error rate v/s is carried over to the Z
    sample with the finite-size transfer penalty.  Rates above 1/2 are
    clamped to 1/2 (the bound is then vacuous).  When no X error was
    observed the rate is floored at one phantom error, 1/s_x1, to keep
    the penalty well-defined.
    """
    if s_x1 <= 0.0:
        raise EstimationError("phase error bound requires s_x1 > 0 (no X statistics)")
    if s_z1 <= 0.0:
        raise EstimationError("phase error bound requires s_z1 > 0")
    ratio = max(0.0, v_x1) / s_x1
    floored = max(ratio, 1.0 / s_x1)
    if floored >= 1.0:
        return 0.5
    phi = floored + gamma_correction(eps, floored, s_x1, s_z1)
    return min(0.5, phi)


def observed_error_upper(
    test_errors_by_link: Mapping[str, float], k: int, L: int, eps_pe: float
) -> float:
    """Worst-link bound on the signing-key error rate from the test samples.

    ``test_errors_by_link`` maps link name to the error count observed on
    its k-bit test sample.  Each link's rate is lifted with the
    without-replacement tail bound and the maximum is returned, since the
    signature uses both links' keys.
    """
    if not test_errors_by_link:
        raise ValueError("at least one link is required")
    bounds = []
    for link, errors in test_errors_by_link.items():
        if not 0 <= errors <= k:
            raise ValueError(
                f"link {link!r}: test errors must lie in [0, k], got {errors} with k={k}"
            )
        bounds.append(serfling_error_upper(errors / k, L, k, eps_pe))
    return max(bounds)


def estimate_counts(
    counts: ObservedCounts, pc: PulseConfig, budget: EpsilonBudget
) -> FiniteKeyEstimates:
    """Run the full estimation chain on one set of counts.

    Returns pool-scale bounds when given pool-scale counts; use
    ``block_scale`` to certify an L-bit block carved from a larger pool.
    Degenerate statistics do not raise: the estimates saturate
    (phi = 1/2) and are flagged, which downstream feasibility checks
    treat as an infeasible block.
    """
    s_z1 = single_photon_lower(counts, "Z", pc, budget)
    s_x1 = single_photon_lower(counts, "X", pc, budget)
    v_x1 = single_photon_error_upper(counts, pc, budget)
    s_z0 = vacuum_upper(counts.m_total("Z"), budget.eps_pe)
    if s_x1 <= 0.0 or s_z1 <= 0.0:
        phi = 0.5
    else:
        phi = phase_error_upper(s_x1, v_x1, s_z1, budget.eps_pe)
    return FiniteKeyEstimates(
        s_z1_lower=s_z1,
        phi_z1_upper=phi,
        s_z0_upper=s_z0,
        s_x1_lower=s_x1,
        v_x1_upper=v_x1,
        saturated=phi >= 0.5,
    )


def block_scale(
    counts: ObservedCounts,
    pc: PulseConfig,
    budget: EpsilonBudget,
    L: int,
    pool_size: float,
) -> FiniteKeyEstimates:
    """Certify an L-bit signing block carved from a pool of ``pool_size`` bits.

    All cells are rescaled by L / pool_size and every concentration bound
    is re-applied at block scale, so short blocks pay proportionally
    larger finite-size penalties.  With L = pool_size this reduces to
    ``estimate_counts`` on the original counts.
    """
    if pool_size <= 0:
        raise ValueError(f"pool size must be positive, got {pool_size}")
    if not 0 < L <= pool_size:
        raise ValueError(f"block length must lie in (0, pool size], got L={L}")
    return estimate_counts(counts.scaled(L / pool_size), pc, budget)
